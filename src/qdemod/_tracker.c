/*
 * The compiled loops of qdemod, built and loaded by qdemod._tracker.
 *
 * close_group: the closed loop of a whole row group in one call, the
 * compiled form of _numpy_kernel.close_group.  Of the cell's nt causal
 * tracker taps t_l, lag 0 first, t_0 = l0 closes the loop in each sample,
 * and a sample's tracker history is sum_{l>=1} t_l times the record l
 * samples before it.  Per block of n samples close_group makes the
 * far history, the lags that reach before the block, by a uniformly
 * partitioned overlap-save convolution (Gardner, JAES 43(3), 1995).  Let
 * x_k be block k of the records, the nt steady-state records and then the
 * loop's, H_p the spectrum of the taps for lags p n .. p n + n - 1 (zero
 * padded to 2n) and Z_k = rfft([x_{k-1}, 0]), stored once per block.  Loop
 * block b's far history is the last n samples of
 * irfft(Z_b H_0 + sum_{p>=1} W_{b-p} H_p), W_k = rfft([x_{k-1}, x_k]) =
 * Z_k + (-1)^f Z_{k+1} at bin f; collected by Z, the sum is
 * sum_p Z_{b-p} G_p with G_p = H_p + (-1)^f H_{p+1}, the taps' partition
 * spectra (partition_spectra, once per group).  Per block that is a forward
 * real FFT of the last block's records into a ring of stored spectra,
 * their multiply-add with the G_p (far_mac) and an inverse real FFT;
 * track_block then adds the lags inside the block and closes it.  far_mac
 * and track_block are its inlined steps.  A loop block's records are left
 * in the forward FFT's input tile; a steady-state block, the record at zero
 * tracking error, is formed there as phibar + y0/2|a| from the last nt
 * samples of phibar and y0.
 *
 * track_block closes one block sample by sample, all rows in lockstep
 * (_numpy_kernel._track_block).  It moves the block of the group's own
 * (rows, m) arrays (the mean phase phibar and the quadratures x0, NULL for
 * squeezed_z, and y0) into (n, rows) tiles by 8 x 8 blocked transposes, and
 * forms the closure constants there in contiguous passes; its far history
 * is the inverse FFT's (n, rows) tile.  It adds the lags inside the block,
 * closes the loop in the tracking error e, writes the records into the tile
 * the next forward FFT reads, and moves them into rec, and the tracker
 * outputs into phip, by the same transposes.
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
 *            CLOSURE_TOL.  The first LOCKSTEP_STEPS steps run over all
 *            rows of the group, later ones over each vector of 8 rows
 *            that has a row still stepping; a row that has stopped takes
 *            a zero step, so it keeps its bits however many its group or
 *            vector takes.
 * Then phip = phibar - e and rec = (phibar + z) + ((X sin e + Y cos e) - e).
 * A NaN step is never clipped and never stops the iteration, and a clipped
 * step never stops it.  sin and cos are the package's own (sin_cos), not
 * libm's, so the closure's row loop has no call in it and vectorises.
 *
 * spectrum_product: a spectrum times a filter response, in place.  It, the
 * far history's FFTs and far_mac keep spectra as split real and imaginary
 * planes and round each of a complex product's four real products on its
 * own, so their bits depend neither on whether the CPU has fused
 * multiply-adds nor on numpy's build.
 *
 * levinson: the symmetric Toeplitz solve of the Wiener-Hopf normal
 * equations.
 *
 * All follow their numpy forms, qdemod._numpy_kernel's entries of the same
 * names, operation for operation, so build them without floating-point
 * contraction.  Vectorising keeps each element's operations and their order,
 * so both builds of a cloned function give the same bits.
 */
#include <math.h>
#include <stddef.h>

#define CLOSURE_STEPS 8
#define CLOSURE_TOL 1e-13

/* close_group and spectrum_product are built twice, for ISA_CLONE
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
/* A helper of the cloned functions (track_block and far_mac among them),
 * always inlined, so each clone runs its own build of it. */
#ifdef __GNUC__
#define INLINED static inline __attribute__((always_inline))
#else
#define INLINED static inline
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
 * _numpy_kernel._sincos makes the same operations in numpy. */
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

/* A row group, bound once (qdemod._tracker.Kernel checks every array and
 * picks the block length n, a power of two that divides nt and m).
 * phibar, x0, y0, rec and phip are C-contiguous (rows, m) arrays, rec the
 * loop's record; taps holds the nt <= m tracker taps, lag 0 first, and work
 * the larger of (5 n + 3) rows and partition_spectra's (parts + 1) (6 n + 2)
 * doubles.  close_group keeps the far history in hist,
 * ((parts + 1) (n + 1) 2 + 6 n) rows + 2 n + 2 parts (n + 1) doubles. */
struct group {
    int n, rows, nt, m, parts;
    double twoa;
    const double *taps, *phibar, *x0, *y0;
    double *rec, *phip, *work, *hist;
};

/* dst[a * da + b] = src[a + b * sb] for a < na and b < nb, by blocks of 8
 * by 8, so each block's 8 lines of dst are written whole while its 8 lines
 * of src are in the L1 cache, not one entry at a time down a 256-byte
 * stride.  It moves a block of samples between the group's rows and an
 * (n, rows) tile, either way. */
#define TB 8

INLINED void transpose(int na, int nb, const double *restrict src, ptrdiff_t sb,
                       double *restrict dst, ptrdiff_t da)
{
    for (int a0 = 0; a0 < na; a0 += TB) {
        for (int b0 = 0; b0 < nb; b0 += TB) {
            const double *s = src + a0 + b0 * sb;
            double *d = dst + a0 * da + b0;
            const int aw = na - a0 < TB ? na - a0 : TB, bw = nb - b0 < TB ? nb - b0 : TB;
            if (aw == TB && bw == TB) {
                for (int a = 0; a < TB; a++)
                    for (int b = 0; b < TB; b++)
                        d[a * da + b] = s[a + b * sb];
            } else {
                for (int a = 0; a < aw; a++)
                    for (int b = 0; b < bw; b++)
                        d[a * da + b] = s[a + b * sb];
            }
        }
    }
}

/* The Halley steps every row of a sample takes in lockstep; after them each
 * vector of VECTOR_ROWS rows (an AVX-512 register of doubles) steps on its
 * own, so a row that has not stopped takes only its own vector through its
 * further steps. */
#define LOCKSTEP_STEPS 2
#define VECTOR_ROWS 8

/* Samples j0 .. j0 + n - 1; their far history, the lags that reach before
 * the block, is far[i * rows + r] for row r and sample j0 + i, and rec, an
 * (n, rows) tile, gets their records (the next block's forward FFT reads
 * them there).  Each row's tracking error e stays in work from block to
 * block, after five tiles and c; close_group zeroes it before the first. */
INLINED void track_block(const struct group *g, int j0, const double *restrict far,
                         double *restrict rec)
{
    const int n = g->n, rows = g->rows;
    const double *taps = g->taps, l0 = taps[0], twoa = g->twoa, k = 1.0 - l0;
    const size_t tile = (size_t)n * rows;
    double *restrict X = g->work, *restrict Y = X + tile, *restrict pb = Y + tile;
    double *restrict r0 = pb + tile, *restrict cb = r0 + tile;
    double *restrict c = cb + tile, *restrict e = c + rows, *restrict stop = e + rows;
    transpose(n, rows, g->phibar + j0, g->m, pb, rows);
    transpose(n, rows, g->y0 + j0, g->m, Y, rows);
    if (g->x0) {
        transpose(n, rows, g->x0 + j0, g->m, X, rows);
        for (size_t o = 0; o < tile; o++) {
            X[o] = X[o] / twoa + 1.0;
            Y[o] = Y[o] / twoa;
            r0[o] = pb[o];
            cb[o] = k * pb[o] - far[o];
        }
    } else {
        for (size_t o = 0; o < tile; o++) {
            const double z = Y[o] / twoa;
            X[o] = 1.0;
            Y[o] = 0.0;
            r0[o] = pb[o] + z;
            cb[o] = k * pb[o] - l0 * z - far[o];
        }
    }
    for (int i = 0; i < n; i++) {
        const size_t o = (size_t)i * rows;
        double *lag = rec + o;  /* sample i's record slot holds its lag sum */
        for (int r = 0; r < rows; r++)
            lag[r] = 0.0;
        for (int j = 0; j < i; j++) {  /* lags i .. 1 */
            const double wj = taps[i - j];
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
            int it = 0;
            for (; it < LOCKSTEP_STEPS && !all_stopped(rows, stop); it++)
                halley_step(rows, l0, k, X + o, Y + o, c, e, stop);
            for (int v = 0; v < rows; v += VECTOR_ROWS) {
                const int vw = rows - v < VECTOR_ROWS ? rows - v : VECTOR_ROWS;
                for (int jt = it; jt < CLOSURE_STEPS && !all_stopped(vw, stop + v); jt++)
                    halley_step(vw, l0, k, X + o + v, Y + o + v, c + v, e + v, stop + v);
            }
        }
        for (int r = 0; r < rows; r++) {
            double s, co;
            sin_cos(e[r], &s, &co);
            rec[o + r] = r0[o + r] + ((s * X[o + r] + co * Y[o + r]) - e[r]);
            pb[o + r] -= e[r];  /* the tracker output */
        }
    }
    transpose(rows, n, rec, rows, g->rec + j0, g->m);
    transpose(rows, n, pb, rows, g->phip + j0, g->m);
}

/* The far history's FFTs, radix 2 over n = 2^t complex points.  A complex
 * sequence is kept as planes with the rows innermost: its entry j is a real
 * row and then an imaginary row, 2 rows doubles, so every loop below runs
 * across the rows of the group, as track_block's tiles do, and rounds each
 * real product on its own.  A real sequence of length 2n, (2n, rows), is
 * then the same memory as its complex form z_j = x_2j + i x_2j+1.  tw holds
 * the twiddles W^k = exp(-i pi k/n), k < n, as (2, n) planes (cos, -sin),
 * sin_cos of k (pi/n) (_numpy_kernel._twiddles).  _numpy_kernel._fft and
 * _real_fft make the same operations in numpy. */
#define PI 3.141592653589793

static void twiddles(int n, double *tw)
{
    for (int k = 0; k < n; k++) {
        double s, c;
        sin_cos(k * (PI / n), &s, &c);
        tw[k] = c;
        tw[n + k] = -s;
    }
}

/* The DFT of each row's complex sequence src, sum_j src_j W^(2jk), or the
 * unnormalised inverse: radix-2 Stockham autosort (decimation in frequency,
 * natural order in and out), Cooley and Tukey's butterflies.  At stride s
 * the butterfly p of the sub-sequences of length n/s is u + v and
 * (u - v) W^(2ps).  The stages alternate between a and b, reading src only
 * in the first; returns the one that holds the result (src when n is 1).
 * The inverse runs the same stages on the swapped planes (im, re), which
 * conjugates the transform. */
INLINED void butterfly(int rows, double wr, double wi, const double *restrict ur,
                       const double *restrict ui, const double *restrict vr,
                       const double *restrict vi, double *restrict sr, double *restrict si,
                       double *restrict dr, double *restrict di)
{
    for (int r = 0; r < rows; r++) {
        const double xr = ur[r] - vr[r], xi = ui[r] - vi[r];
        sr[r] = ur[r] + vr[r];
        si[r] = ui[r] + vi[r];
        dr[r] = xr * wr - xi * wi;
        di[r] = xr * wi + xi * wr;
    }
}

INLINED const double *fft(int n, int rows, int inverse, const double *src, double *a,
                          double *b, const double *tw)
{
    const size_t el = 2 * (size_t)rows;
    const size_t re = inverse ? rows : 0, im = rows - re;
    const double *x = src;
    double *y = a;
    for (int s = 1; s < n; s *= 2) {
        const int half = n / (2 * s);
        for (int p = 0; p < half; p++) {
            const double wr = tw[2 * p * s], wi = tw[n + 2 * p * s];
            const double *u = x + (size_t)p * s * el, *v = u + (size_t)half * s * el;
            double *y0 = y + (size_t)2 * p * s * el, *y1 = y0 + (size_t)s * el;
            for (size_t o = 0; o < (size_t)s * el; o += el)
                butterfly(rows, wr, wi, u + o + re, u + o + im, v + o + re, v + o + im,
                          y0 + o + re, y0 + o + im, y1 + o + re, y1 + o + im);
        }
        x = y;
        y = y == a ? b : a;
    }
    return x;
}

/* The spectrum X_k, k = 0 .. n, (n + 1, 2, rows), of the real sequences of
 * length 2n whose complex form has the DFT z: with
 * E = (z_k + conj z_(n-k))/2 and O = (z_k - conj z_(n-k))/2i,
 * X_k = E + W^k O and X_(n-k) = conj(E - W^k O). */
INLINED void split(int n, int rows, const double *z, double *out, const double *tw)
{
    const size_t el = 2 * (size_t)rows;
    for (int r = 0; r < rows; r++) {
        const double zr = z[r], zi = z[rows + r];
        out[r] = zr + zi;
        out[rows + r] = 0.0;
        out[n * el + r] = zr - zi;
        out[n * el + rows + r] = 0.0;
    }
    for (int k = 1; 2 * k <= n; k++) {
        const double wr = tw[k], wi = tw[n + k];
        const double *restrict a = z + k * el, *restrict c = z + (n - k) * el;
        double *restrict xk = out + k * el, *restrict xm = out + (n - k) * el;
        const int pair = 2 * k < n;  /* else X_(n-k) is X_k */
        for (int r = 0; r < rows; r++) {
            const double er = (a[r] + c[r]) * 0.5, ei = (a[rows + r] - c[rows + r]) * 0.5;
            const double odr = (a[rows + r] + c[rows + r]) * 0.5, odi = (c[r] - a[r]) * 0.5;
            const double tr = odr * wr - odi * wi, ti = odr * wi + odi * wr;
            xk[r] = er + tr;
            xk[rows + r] = ei + ti;
            if (pair) {
                xm[r] = er - tr;
                xm[rows + r] = ti - ei;
            }
        }
    }
}

/* The complex form z, times 2, of the real sequences of length 2n whose
 * spectrum is X_k, k = 0 .. n (split's inverse; X_0 and X_n are taken as
 * real): with E = X_k + conj X_(n-k) and O = (X_k - conj X_(n-k)) conj W^k,
 * z_k = E + i O and z_(n-k) = conj E + i conj O. */
INLINED void unsplit(int n, int rows, const double *x, double *z, const double *tw)
{
    const size_t el = 2 * (size_t)rows;
    for (int r = 0; r < rows; r++) {
        z[r] = x[r] + x[n * el + r];
        z[rows + r] = x[r] - x[n * el + r];
    }
    for (int k = 1; 2 * k <= n; k++) {
        const double wr = tw[k], wi = tw[n + k];
        const double *restrict a = x + k * el, *restrict c = x + (n - k) * el;
        double *restrict zk = z + k * el, *restrict zm = z + (n - k) * el;
        const int pair = 2 * k < n;
        for (int r = 0; r < rows; r++) {
            const double er = a[r] + c[r], ei = a[rows + r] - c[rows + r];
            const double dr = a[r] - c[r], di = a[rows + r] + c[rows + r];
            const double odr = dr * wr + di * wi, odi = di * wr - dr * wi;
            zk[r] = er - odi;
            zk[rows + r] = ei + odr;
            if (pair) {
                zm[r] = er + odi;
                zm[rows + r] = odr - ei;
            }
        }
    }
}

/* One far-history sum of a group (_numpy_kernel._far_mac): acc, (n + 1, 2,
 * rows), gets sum_p ring[(s + 1 + p) % parts] g[p], p = 0 .. parts - 1,
 * oldest block first, ring holding the (parts, n + 1, 2, rows) stored
 * spectra and g the (parts, 2, n + 1) planes of the partition spectra in
 * that order.  Each product is re = xr gr - xi gi and im = xr gi + xi gr,
 * and each row's sum starts from its first product.  The sums run MAC_BINS
 * bins at a time, so they stay in L1 while the partitions stream past. */
#define MAC_BINS 16

/* a = x w, or a += x w, for each row, x and a as real and imaginary rows */
INLINED void mac_bin(int rows, int first, double wr, double wi, const double *restrict xr,
                     const double *restrict xi, double *restrict ar, double *restrict ai)
{
    if (first) {
        for (int r = 0; r < rows; r++) {
            ar[r] = xr[r] * wr - xi[r] * wi;
            ai[r] = xr[r] * wi + xi[r] * wr;
        }
    } else {
        for (int r = 0; r < rows; r++) {
            ar[r] += xr[r] * wr - xi[r] * wi;
            ai[r] += xr[r] * wi + xi[r] * wr;
        }
    }
}

INLINED void far_mac(int n, int rows, int parts, int s, const double *ring, const double *g,
                     double *acc)
{
    const size_t el = 2 * (size_t)rows, slot = (size_t)(n + 1) * el;
    for (int k0 = 0; k0 <= n; k0 += MAC_BINS) {
        const int k1 = n + 1 - k0 < MAC_BINS ? n + 1 : k0 + MAC_BINS;
        for (int p = 0; p < parts; p++) {
            const double *x = ring + (size_t)((s + 1 + p) % parts) * slot;
            const double *gr = g + (size_t)2 * p * (n + 1), *gi = gr + n + 1;
            for (int k = k0; k < k1; k++)
                mac_bin(rows, p == 0, gr[k], gi[k], x + k * el, x + k * el + rows, acc + k * el,
                        acc + k * el + rows);
        }
    }
}

/* The taps' partition spectra G_p = H_p + (-1)^f H_(p+1) (the header),
 * divided by 2n, the inverse FFT's factor (exactly: a power of two), into
 * g as (parts, 2, n + 1) planes, G_(parts-1) first: oldest block first, as
 * far_mac reads them (_numpy_kernel._partition_spectra).  The taps'
 * partitions and a zero one, parts + 1 rows of the FFT, each zero padded
 * to 2n, go through fft, which reads h only in its first stage and so may
 * reuse it, and split; h holds (parts + 1) (6 n + 2) doubles. */
static void partition_spectra(int n, int parts, const double *taps, double *g, double *h,
                              const double *tw)
{
    const int cols = parts + 1;
    const size_t tile = 2 * (size_t)n * cols;
    double *a = h + tile, *hs = a + tile;
    for (int i = 0; i < 2 * n; i++)
        for (int p = 0; p < cols; p++)
            h[(size_t)i * cols + p] = i < n && p < parts ? taps[(size_t)p * n + i] : 0.0;
    split(n, cols, fft(n, cols, 0, h, a, h, tw), hs, tw);
    for (int q = 0; q < parts; q++) {
        const int p = parts - 1 - q;
        for (int c = 0; c < 2; c++) {
            double *out = g + ((size_t)2 * q + c) * (n + 1);
            for (int f = 0; f <= n; f++) {
                const double *x = hs + ((size_t)2 * f + c) * cols + p;
                out[f] = (f % 2 ? x[0] - x[1] : x[0] + x[1]) / (2.0 * n);
            }
        }
    }
}

/* The closed loop of a whole row group (_numpy_kernel.close_group), block k
 * being samples k n .. k n + n - 1 of the nt steady-state records followed
 * by the loop's.  Per block k from 1, the spectrum of block k - 1, the real
 * FFT of [block, n zeros], goes into slot k % parts of the ring.  From
 * k = parts on, block k is a loop block: its far history is the last n
 * samples of the inverse FFT of far_mac's sum, and track_block closes it,
 * writing its records into rec and into x, the first half of the next
 * forward FFT's input.  Blocks 0 .. parts - 1, the steady-state records,
 * are formed in x as phibar + y0/2|a| from the last nt samples of phibar
 * and y0, y0's block passing through a, which is free there. */
ISA_CLONES
void close_group(const struct group *g)
{
    const int n = g->n, rows = g->rows, parts = g->parts;
    const double twoa = g->twoa;  /* read once: the stores into x could alias *g */
    const size_t el = 2 * (size_t)rows, slot = (size_t)(n + 1) * el, tile = 2 * (size_t)n * rows;
    double *ring = g->hist, *acc = ring + parts * slot, *x = acc + slot;
    double *a = x + tile, *b = a + tile, *tw = b + tile, *spectra = tw + 2 * n;
    twiddles(n, tw);
    partition_spectra(n, parts, g->taps, spectra, g->work, tw);  /* before track_block's use */
    for (int r = 0; r < rows; r++)  /* track_block's e: every row starts in lock */
        g->work[(size_t)(5 * n + 1) * rows + r] = 0.0;
    for (size_t i = tile / 2; i < tile; i++)
        x[i] = 0.0;
    for (int k = 1; k < (g->nt + g->m) / n; k++) {
        if (k <= parts) {  /* a steady-state block; a loop block's records are in x */
            const size_t j = (size_t)(g->m - g->nt) + (size_t)(k - 1) * n;
            transpose(n, rows, g->phibar + j, g->m, x, rows);
            transpose(n, rows, g->y0 + j, g->m, a, rows);
            for (size_t i = 0; i < tile / 2; i++)
                x[i] += a[i] / twoa;
        }
        split(n, rows, fft(n, rows, 0, x, a, b, tw), ring + (size_t)(k % parts) * slot, tw);
        if (k < parts)
            continue;
        far_mac(n, rows, parts, k % parts, ring, spectra, acc);
        unsplit(n, rows, acc, a, tw);
        track_block(g, (k - parts) * n, fft(n, rows, 1, a, b, a, tw) + tile / 2, x);
    }
}

/* The product of spectrum_product runs on planes of CHUNK bins: each
 * product is re = ar br - ai bi and im = ar bi + ai br, every product
 * rounded on its own, as numpy multiplies complex arrays without fused
 * multiply-adds.  The interleaved (re, im) arrays numpy's FFTs read and
 * write are only copied to and from the planes: gcc 12's avx512f build of an
 * interleaved complex loop fuses (vfmaddsub) even under -ffp-contract=off,
 * and the planar loops of both clones do not. */
#define CHUNK 64

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
