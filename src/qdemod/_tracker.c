/*
 * The compiled loops of qdemod, built and loaded by qdemod._tracker.
 *
 * track_block: one tracker history block of a row group, closed sample by
 * sample with all rows in lockstep; the compiled form of pll._track_block.
 * It reads the block straight from the group's own (rows, m) arrays, each
 * with its row stride: the mean phase phibar, the quadratures x0 (NULL for
 * squeezed_z) and y0, and the far history, the lags that reach before the
 * block (qdemod.pll forms it by FFT).  It copies each row's tile into
 * (n, rows) work buffers, forms the closure constants there, adds the lags
 * inside the block, closes the loop in the tracking error e and writes the
 * block's records into fr and tracker outputs into phip.
 *
 * The record is phibar - e + X sin e + Y cos e + z, with X = 1 + x0/2|a|,
 * Y = y0/2|a| and z = 0, or, for squeezed_z, X = 1, Y = 0 and z = y0/2|a|.
 * So per sample i and row r, with k = 1 - l0 and
 * c = k phibar - l0 z - far - (in-block lags):
 *   l0 == 0: e = c (the closure is explicit);
 *   else:    from the previous sample's e, Halley on
 *            f(e) = k e + l0 (X sin e + Y cos e) - c, at most CLOSURE_STEPS
 *            steps, each clipped to +-1 rad.  With ls = l0 (X sin e + Y cos e),
 *            lc = l0 (X cos e - Y sin e), f' = lc + k, r = f/f' and
 *            h = ls/(2f'), the step is r/(1 + r h), or Newton's r where
 *            1 + r h <= 0 (far from the root, where Halley's step points
 *            away from it); the row stops once the error predicted after an
 *            unclipped step, (|lc/(6f')| + h^2) |step|^3, is below
 *            CLOSURE_TOL.  Each step runs over all rows of the group, and a
 *            row that has stopped takes a zero step, so it keeps its bits.
 * Then phip = phibar - e and rec = (phibar + z) + ((X sin e + Y cos e) - e).
 * A NaN step is never clipped and never stops the iteration, and a clipped
 * step never stops it.  sin and
 * cos are the package's own (sin_cos), not libm's, so the closure's row
 * loop has no call in it and vectorises across the rows.
 *
 * far_mac: one far-history step, the sum over partitions of the stored
 * block spectra times the taps' partition spectra (pll._far_mac in numpy).
 * spectrum_product: a spectrum times a filter response, in place
 * (grids._spectrum_product in numpy).  Both keep the spectra as split real
 * and imaginary planes and round each of a complex product's four real
 * products on its own, so their bits do not depend on whether the CPU, or
 * numpy's build for it, has fused multiply-adds.
 *
 * levinson: the symmetric Toeplitz solve of the Wiener-Hopf normal
 * equations, the compiled form of wiener._levinson.
 *
 * All follow their numpy forms operation for operation, so build them
 * without floating-point contraction.  Vectorising keeps each element's
 * operations and their order, so both builds of a cloned function give the
 * same bits.
 */
#include <math.h>
#include <stddef.h>

#define CLOSURE_STEPS 8
#define CLOSURE_TOL 1e-13

/* track_block, far_mac and spectrum_product are built twice, for ISA_CLONE
 * and for the baseline, and the loader runs the ISA_CLONE builds where the
 * CPU has it (ifunc).  Both make the same IEEE operations in the same order,
 * since nothing is contracted or reassociated, so they give the same bits.
 * Without the attribute (another compiler or target) ISA_CLONE stays
 * undefined and the plain functions are built. */
#if defined(__x86_64__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define ISA_CLONE "avx512f"
#endif
#endif
#ifdef ISA_CLONE
#define ISA_CLONES __attribute__((target_clones(ISA_CLONE, "default")))
#else
#define ISA_CLONES
#endif

/* The clone this CPU runs: the resolver's own test. */
const char *kernel_isa(void)
{
#ifdef ISA_CLONE
    __builtin_cpu_init();
    if (__builtin_cpu_supports(ISA_CLONE))
        return ISA_CLONE;
#endif
    return "default";
}

/* sin x and cos x by FreeBSD msun's method for |x| < 2^20 pi/2: Cody &
 * Waite's reduction by pi/2 in three parts, msun's medium case with its
 * second round always taken (fn PIO2_1 and fn PIO2_2 are exact for
 * |fn| < 2^20), gives y0 + y1; then msun's __kernel_sin, with its tail y1,
 * and __kernel_cos on [-pi/4, pi/4].  fn is rounded to nearest
 * by the 0x1.8p52 shift, and the quadrant m4 = fn - 4 round(fn/4), in
 * -2 .. 2, is picked by double comparisons and selects.  Within 1 ulp of
 * glibc's for |x| <= 1e6; +-0 keeps its sign and NaN or +-inf give NaN.
 * pll._sincos makes the same operations in numpy. */
#define SHIFT 6755399441055744.0  /* 0x1.8p52 */
#define INVPIO2 0.6366197723675814
#define PIO2_1 1.5707963267341256
#define PIO2_2 6.077100506303966e-11
#define PIO2_2T 2.0222662487959506e-21
#define S1 -0.16666666666666632
#define S2 0.00833333333332249
#define S3 -0.0001984126982985795
#define S4 2.7557313707070068e-06
#define S5 -2.5050760253406863e-08
#define S6 1.58969099521155e-10
#define C1 0.0416666666666666
#define C2 -0.001388888888887411
#define C3 2.480158728947673e-05
#define C4 -2.7557314351390663e-07
#define C5 2.087572321298175e-09
#define C6 -1.1359647557788195e-11

static inline void sin_cos(double x, double *sn, double *cs)
{
    const double fn = (x * INVPIO2 + SHIFT) - SHIFT;
    const double t = x - fn * PIO2_1, u = fn * PIO2_2, r = t - u;
    const double w = fn * PIO2_2T - ((t - r) - u);
    const double y0 = r - w, y1 = (r - y0) - w;
    const double z = y0 * y0, zz = z * z;
    const double rs = (S2 + z * (S3 + z * S4)) + z * zz * (S5 + z * S6);
    const double v = z * y0;
    const double s = y0 - ((z * (0.5 * y1 - v * rs) - y1) - v * S1);
    const double rc = z * (C1 + z * (C2 + z * C3)) + zz * zz * (C4 + z * (C5 + z * C6));
    const double hz = 0.5 * z, wc = 1.0 - hz;
    const double c = wc + (((1.0 - wc) - hz) + (z * rc - y0 * y1));
    const double m4 = fn - 4.0 * ((fn * 0.25 + SHIFT) - SHIFT);
    const int odd = fabs(m4) == 1.0;
    const double so = odd ? c : s, co = odd ? s : c;
    *sn = fabs(m4 - 0.5) > 1.0 ? -so : so;  /* m4 = -2, -1 or 2 */
    *cs = fabs(m4 + 0.5) > 1.0 ? -co : co;  /* m4 = -2, 1 or 2 */
}

/* One Halley step of every row that has not stopped (stop[r] == 0), at the
 * sample whose X, Y and c are x, y and c; a stopped row takes a zero step,
 * so it keeps its bits.  Branch-free, so the row loop vectorises: both
 * candidate steps are formed before one is selected. */
static inline void halley_step(int rows, double l0, double k, const double *restrict x,
                               const double *restrict y, const double *restrict c,
                               double *restrict e, double *restrict stop)
{
    for (int r = 0; r < rows; r++) {
        const double er = e[r], lx = l0 * x[r], ly = l0 * y[r];
        double s, co;
        sin_cos(er, &s, &co);
        const double ls = s * lx + co * ly, lc = co * lx - s * ly;
        const double fp = lc + k;
        const double rt = (er * k + ls - c[r]) / fp;
        const double h = ls / (2.0 * fp);
        const double den = 1.0 + rt * h;
        const double halley = rt / den;
        const double step = den > 0.0 ? halley : rt;
        const double a = fabs(step);
        const double err = (fabs(lc / (6.0 * fp)) + h * h) * (a * a * a);
        const double clipped = a > 1.0 ? (step > 0.0 ? 1.0 : -1.0) : step;
        const int stopped = stop[r] != 0.0;
        e[r] = er - (stopped ? 0.0 : clipped);
        stop[r] = stopped | ((err < CLOSURE_TOL) & (a <= 1.0)) ? 1.0 : 0.0;
    }
}

static inline int all_stopped(int rows, const double *stop)
{
    for (int r = 0; r < rows; r++)
        if (stop[r] == 0.0)
            return 0;
    return 1;
}

/* A row group, bound once (qdemod._tracker.Kernel.__call__ checks every
 * array).  Row r of an array a starts at a + r * a_stride; each row is
 * contiguous.  trev holds the tracker taps for lags nt-1 .. 1, e each row's
 * tracking error, carried from sample to sample and block to block, and
 * work (6 n + 3) rows doubles.  fr holds nt steady-state records before the
 * loop's record, so sample j's record is fr[nt + j]. */
struct group {
    int n, rows, nt;
    double l0, twoa;
    const double *trev, *phibar, *x0, *y0;
    ptrdiff_t phibar_stride, x0_stride, y0_stride, fr_stride, phip_stride;
    double *e, *fr, *phip, *work;
};

/* Samples j0 .. j0 + n - 1; far (rows of n entries) is their far history. */
ISA_CLONES
void track_block(const struct group *g, int j0, const double *far, ptrdiff_t far_stride)
{
    const int n = g->n, rows = g->rows, nt = g->nt;
    const double l0 = g->l0, twoa = g->twoa, k = 1.0 - l0;
    const size_t tile = (size_t)n * rows;
    double *restrict X = g->work, *restrict Y = X + tile, *restrict pb = Y + tile;
    double *restrict r0 = pb + tile, *restrict cb = r0 + tile, *restrict rec = cb + tile;
    double *restrict c = rec + tile, *restrict e = c + rows, *restrict stop = e + rows;
    for (int r = 0; r < rows; r++) {
        const double *p = g->phibar + r * g->phibar_stride + j0;
        const double *y0 = g->y0 + r * g->y0_stride + j0;
        const double *x0 = g->x0 ? g->x0 + r * g->x0_stride + j0 : NULL;
        const double *fa = far + r * far_stride;
        for (int i = 0; i < n; i++) {
            const size_t o = (size_t)i * rows + r;
            pb[o] = p[i];
            if (x0) {
                X[o] = x0[i] / twoa + 1.0;
                Y[o] = y0[i] / twoa;
                r0[o] = p[i];
                cb[o] = k * p[i] - fa[i];
            } else {
                const double z = y0[i] / twoa;
                X[o] = 1.0;
                Y[o] = 0.0;
                r0[o] = p[i] + z;
                cb[o] = k * p[i] - l0 * z - fa[i];
            }
        }
        e[r] = g->e[r];
    }
    for (int i = 0; i < n; i++) {
        const size_t o = (size_t)i * rows;
        const double *w = g->trev + (nt - 1 - i);  /* weights of lags i .. 1 */
        double *lag = rec + o;  /* sample i's record slot holds its lag sum */
        for (int r = 0; r < rows; r++)
            lag[r] = 0.0;
        for (int j = 0; j < i; j++) {
            const double wj = w[j];
            const double *rj = rec + (size_t)j * rows;
            for (int r = 0; r < rows; r++)
                lag[r] += wj * rj[r];
        }
        for (int r = 0; r < rows; r++)
            c[r] = cb[o + r] - lag[r];
        if (l0 == 0.0) {
            for (int r = 0; r < rows; r++)
                e[r] = c[r];
        } else {
            for (int r = 0; r < rows; r++)
                stop[r] = 0.0;
            for (int it = 0; it < CLOSURE_STEPS && !all_stopped(rows, stop); it++)
                halley_step(rows, l0, k, X + o, Y + o, c, e, stop);
        }
        for (int r = 0; r < rows; r++) {
            double s, co;
            sin_cos(e[r], &s, &co);
            rec[o + r] = r0[o + r] + ((s * X[o + r] + co * Y[o + r]) - e[r]);
            pb[o + r] -= e[r];  /* the tracker output */
        }
    }
    for (int r = 0; r < rows; r++) {
        double *f = g->fr + r * g->fr_stride + nt + j0, *out = g->phip + r * g->phip_stride + j0;
        for (int i = 0; i < n; i++) {
            f[i] = rec[(size_t)i * rows + r];
            out[i] = pb[(size_t)i * rows + r];
        }
        g->e[r] = e[r];
    }
}

/* The complex products of far_mac and spectrum_product run on planes of
 * CHUNK bins: each product is re = ar br - ai bi and im = ar bi + ai br,
 * every product rounded on its own, as numpy multiplies complex arrays
 * without fused multiply-adds.  The interleaved (re, im) arrays numpy's FFTs
 * read and write are only copied to and from the planes: gcc 12's avx512f
 * build of an interleaved complex loop fuses (vfmaddsub) even under
 * -ffp-contract=off, and the planar loops of both clones do not. */
#define CHUNK 64

/* One far-history step of a row group (pll._far_history): z (rows x bins,
 * interleaved complex) is the spectrum of the newest block.  It is copied
 * into slot s of ring, the (parts, 2, rows, bins) planes (re, im) of the
 * stored spectra.  Unless out is NULL, out (rows x bins, interleaved
 * complex) then gets sum_p ring[(s + 1 + p) % parts] g[p], p = 0 .. parts - 1,
 * oldest block first, with g the (parts, 2, bins) planes of the partition
 * spectra in that order.  Each row's sum starts from its first product. */
ISA_CLONES
void far_mac(int rows, int bins, int parts, int s, const double *z, double *ring,
             const double *g, double *out)
{
    const size_t plane = (size_t)rows * bins;
    for (int r = 0; r < rows; r++) {
        const size_t row = (size_t)r * bins;
        double *zr = ring + 2 * plane * s + row, *zi = zr + plane;
        for (int k = 0; k < bins; k++) {
            zr[k] = z[2 * (row + k)];
            zi[k] = z[2 * (row + k) + 1];
        }
        if (!out)
            continue;
        for (int k0 = 0; k0 < bins; k0 += CHUNK) {
            const int n = bins - k0 < CHUNK ? bins - k0 : CHUNK;
            double ar[CHUNK], ai[CHUNK];
            for (int p = 0; p < parts; p++) {
                const double *xr = ring + 2 * plane * ((s + 1 + p) % parts) + row + k0;
                const double *xi = xr + plane, *gr = g + (size_t)2 * bins * p + k0;
                const double *gi = gr + bins;
                if (p == 0) {
                    for (int k = 0; k < n; k++) {
                        ar[k] = xr[k] * gr[k] - xi[k] * gi[k];
                        ai[k] = xr[k] * gi[k] + xi[k] * gr[k];
                    }
                } else {
                    for (int k = 0; k < n; k++) {
                        ar[k] += xr[k] * gr[k] - xi[k] * gi[k];
                        ai[k] += xr[k] * gi[k] + xi[k] * gr[k];
                    }
                }
            }
            double *o = out + 2 * (row + k0);
            for (int k = 0; k < n; k++) {
                o[2 * k] = ar[k];
                o[2 * k + 1] = ai[k];
            }
        }
    }
}

/* spectrum (rows x bins, interleaved complex) times h, the (2, bins) planes
 * (re, im) of a response, in place (grids.FilterKernel.apply). */
ISA_CLONES
void spectrum_product(ptrdiff_t rows, int bins, double *spectrum, const double *h)
{
    for (ptrdiff_t r = 0; r < rows; r++) {
        for (int k0 = 0; k0 < bins; k0 += CHUNK) {
            const int n = bins - k0 < CHUNK ? bins - k0 : CHUNK;
            double *x = spectrum + 2 * ((size_t)r * bins + k0);
            const double *hr = h + k0, *hi = h + bins + k0;
            double xr[CHUNK], xi[CHUNK], yr[CHUNK], yi[CHUNK];
            for (int k = 0; k < n; k++) {
                xr[k] = x[2 * k];
                xi[k] = x[2 * k + 1];
            }
            for (int k = 0; k < n; k++) {
                yr[k] = xr[k] * hr[k] - xi[k] * hi[k];
                yi[k] = xr[k] * hi[k] + xi[k] * hr[k];
            }
            for (int k = 0; k < n; k++) {
                x[2 * k] = yr[k];
                x[2 * k + 1] = yi[k];
            }
        }
    }
}

/* Solve sum_k c[|j - k|] x[k] = b[j], j, k in [0, n), by Levinson recursion;
 * g (n entries) is work space.  This is the general (two-vector) Levinson
 * recursion with both Toeplitz vectors equal to c: its backward vector then
 * equals the forward vector g and both its denominators equal the one den
 * below, term for term, so one vector gives its bits.
 * Each sum runs from its constant term, lag by lag; the three sums of a step
 * share one pass, and so do its updates of x and g.  Returns 1 when a leading
 * principal minor is singular (c[0] == 0 or a zero den), else 0. */
int levinson(int n, const double *c, const double *b, double *x, double *g)
{
    if (c[0] == 0.0)
        return 1;
    x[0] = b[0] / c[0];
    if (n > 1)
        g[0] = c[1] / c[0];
    for (int m = 1; m < n; m++) {
        double xnum = -b[m], den = -c[0];
        double gnum = m + 1 < n ? -c[m + 1] : 0.0;  /* unused at m == n - 1 */
        for (int j = 0; j < m; j++) {
            const double cj = c[m - j];
            xnum += cj * x[j];
            den += cj * g[m - 1 - j];
            gnum += cj * g[j];
        }
        if (den == 0.0)
            return 1;
        const double xm = xnum / den, gm = gnum / den;
        x[m] = xm;
        g[m] = gm;
        /* x[:m] -= xm g[m-1::-1] and g[:m] -= gm g[m-1::-1], pair by pair */
        const int h = m / 2;
        for (int j = 0; j < h; j++) {
            const int k = m - 1 - j;
            const double gj = g[j], gk = g[k];
            x[j] -= xm * gk;
            x[k] -= xm * gj;
            g[j] = gj - gm * gk;
            g[k] = gk - gm * gj;
        }
        if (m % 2 == 1) {
            const double gh = g[h];
            x[h] -= xm * gh;
            g[h] = gh - gm * gh;
        }
    }
    return 0;
}
