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
 * normals: a row group's white Gaussian draws, (quads, rows, m) planes,
 * numpy's Generator.standard_normal on each trial's Philox stream bit for
 * bit: numpy's Philox4x64-10 and its ziggurat on its own tables, with
 * libm's log1p and exp where numpy calls them.  Its numpy form is numpy's
 * Generator itself.
 *
 * All follow their numpy forms, qdemod._numpy_kernel's entries of the same
 * names, operation for operation, so build them without floating-point
 * contraction.  Vectorising keeps each element's operations and their order,
 * so both builds of a cloned function give the same bits.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>

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

/* numpy's standard normal draws (Generator.standard_normal on a Philox
 * bit generator), bit for bit: the ziggurat of Marsaglia and Tsang (J. Stat.
 * Softw. 5(8), 2000) as numpy's random_standard_normal makes it, on numpy's
 * 256-layer tables.  zig_wi, zig_fi and zig_ki are numpy's wi_double,
 * fi_double and ki_double (numpy/random/src/distributions/
 * ziggurat_constants.h; numpy, BSD-3-Clause licence, copyright NumPy
 * Developers), taken from the .rodata of numpy 2.4.6's libnpyrandom.a;
 * ZIG_R is the last layer's edge r and ZIG_INV_R is 1/r. */
#define ZIG_R 3.6541528853610087963519472518
#define ZIG_INV_R 0.27366123732975827203338247596

static const double zig_wi[256] = {
    0x1.f493b7815d979p-51, 0x1.b8d0be3fdf6c6p-55, 0x1.250af3c2c5bb4p-54, 0x1.57cb938443b61p-54,
    0x1.801fce82fa70cp-54, 0x1.a230c2e4cd0bcp-54, 0x1.c004d2f3861f7p-54, 0x1.dac2f5a747274p-54,
    0x1.f32482d4cd5c3p-54, 0x1.04d32278ebbadp-53, 0x1.0f5053b025d43p-53, 0x1.192a697413677p-53,
    0x1.227a28f7a1af5p-53, 0x1.2b52e3863d880p-53, 0x1.33c3fc05791f5p-53, 0x1.3bd9ec1a2b12fp-53,
    0x1.439ef8dff9b55p-53, 0x1.4b1bb363dfea7p-53, 0x1.52575621ad374p-53, 0x1.59580a707ce96p-53,
    0x1.60231cfd97eeap-53, 0x1.66bd261a37c3dp-53, 0x1.6d2a292000570p-53, 0x1.736dad346f8a6p-53,
    0x1.798ad10b32a77p-53, 0x1.7f845ad46f543p-53, 0x1.855cc53430a77p-53, 0x1.8b1649e7b769ap-53,
    0x1.90b2ea94ecf98p-53, 0x1.96347822c1eeap-53, 0x1.9b9c98e38c546p-53, 0x1.a0eccdca4a72cp-53,
    0x1.a62676d77cd59p-53, 0x1.ab4ad6e101630p-53, 0x1.b05b16d136c9cp-53, 0x1.b558487427a29p-53,
    0x1.ba4368e529f3ap-53, 0x1.bf1d62abf8232p-53, 0x1.c3e70f9594ef3p-53, 0x1.c8a13a5323b61p-53,
    0x1.cd4c9fe72268bp-53, 0x1.d1e9f0e80b748p-53, 0x1.d679d29e41f10p-53, 0x1.dafce0023b8c3p-53,
    0x1.df73aa9f17653p-53, 0x1.e3debb5d2edfep-53, 0x1.e83e9337a6f00p-53, 0x1.ec93abdf982cep-53,
    0x1.f0de784f06226p-53, 0x1.f51f654d8f688p-53, 0x1.f956d9e87d7aep-53, 0x1.fd8537dfa2eacp-53,
    0x1.00d56e04234ecp-52, 0x1.02e40f5398f9ap-52, 0x1.04eea9e16a5fcp-52, 0x1.06f565b72a010p-52,
    0x1.08f869071f40bp-52, 0x1.0af7d84bc6113p-52, 0x1.0cf3d664bcc7fp-52, 0x1.0eec84b16086bp-52,
    0x1.10e20329515eep-52, 0x1.12d4707310fbep-52, 0x1.14c3e9f8e9141p-52, 0x1.16b08bfc4201ep-52,
    0x1.189a71a78da34p-52, 0x1.1a81b51ee6d88p-52, 0x1.1c666f8f82acbp-52, 0x1.1e48b93e0d42ep-52,
    0x1.2028a9940a09fp-52, 0x1.2206572c4c6e9p-52, 0x1.23e1d7de9c31fp-52, 0x1.25bb40ca96bfbp-52,
    0x1.2792a661dd37fp-52, 0x1.29681c719d71bp-52, 0x1.2b3bb62b82edap-52, 0x1.2d0d862e1b853p-52,
    0x1.2edd9e8cba98ep-52, 0x1.30ac10d6e48d7p-52, 0x1.3278ee1f4b930p-52, 0x1.3444470265ea1p-52,
    0x1.360e2baca52d5p-52, 0x1.37d6abe05586ap-52, 0x1.399dd6fb2b264p-52, 0x1.3b63bbfb83d03p-52,
    0x1.3d28698561de0p-52, 0x1.3eebede725a83p-52, 0x1.40ae571e09e74p-52, 0x1.426fb2da6745dp-52,
    0x1.44300e83c30a4p-52, 0x1.45ef773cac75dp-52, 0x1.47adf9e66c336p-52, 0x1.496ba32488f2fp-52,
    0x1.4b287f602415dp-52, 0x1.4ce49acb311dcp-52, 0x1.4ea001638a605p-52, 0x1.505abef5e5562p-52,
    0x1.5214df20a8b5ap-52, 0x1.53ce6d56a664fp-52, 0x1.558774e1bb2c8p-52, 0x1.574000e555f78p-52,
    0x1.58f81c60e8514p-52, 0x1.5aafd23241b59p-52, 0x1.5c672d17d733dp-52, 0x1.5e1e37b2f8cd3p-52,
    0x1.5fd4fc89f5e38p-52, 0x1.618b860a31fc3p-52, 0x1.6341de8a2b0a2p-52, 0x1.64f8104b7260bp-52,
    0x1.66ae257c99672p-52, 0x1.6864283b13137p-52, 0x1.6a1a22950b2b1p-52, 0x1.6bd01e8b343bbp-52,
    0x1.6d8626128d352p-52, 0x1.6f3c43161f854p-52, 0x1.70f27f78b68ebp-52, 0x1.72a8e516914c6p-52,
    0x1.745f7dc70eedcp-52, 0x1.7616535e5731fp-52, 0x1.77cd6faeff449p-52, 0x1.7984dc8babd93p-52,
    0x1.7b3ca3c8b1409p-52, 0x1.7cf4cf3db22fbp-52, 0x1.7ead68c73dee7p-52, 0x1.80667a486ea1fp-52,
    0x1.82200dac88676p-52, 0x1.83da2ce899f15p-52, 0x1.8594e1fd1f5bdp-52, 0x1.875036f7a7ec5p-52,
    0x1.890c35f47f72dp-52, 0x1.8ac8e9205c043p-52, 0x1.8c865aba10c9cp-52, 0x1.8e44951446a27p-52,
    0x1.9003a2973b58fp-52, 0x1.91c38dc288347p-52, 0x1.9384612ef0afcp-52, 0x1.954627903a28ap-52,
    0x1.9708ebb70d5eep-52, 0x1.98ccb892e2a31p-52, 0x1.9a919933f99bfp-52, 0x1.9c5798cd5d92cp-52,
    0x1.9e1ec2b6f7411p-52, 0x1.9fe7226fad24ap-52, 0x1.a1b0c39f93692p-52, 0x1.a37bb21a2c85bp-52,
    0x1.a547f9e0bbb88p-52, 0x1.a715a724aa9a4p-52, 0x1.a8e4c64a0313dp-52, 0x1.aab563e9ff108p-52,
    0x1.ac878cd5af5cep-52, 0x1.ae5b4e18bb336p-52, 0x1.b030b4fc3a11ap-52, 0x1.b207cf09a985bp-52,
    0x1.b3e0aa0e00c00p-52, 0x1.b5bb541ce3d03p-52, 0x1.b797db93f8927p-52, 0x1.b9764f1e5f73cp-52,
    0x1.bb56bdb85256ep-52, 0x1.bd3936b2ec0a2p-52, 0x1.bf1dc9b81ae83p-52, 0x1.c10486cec16a0p-52,
    0x1.c2ed7e5f07a2dp-52, 0x1.c4d8c136e0d1cp-52, 0x1.c6c6608ec8705p-52, 0x1.c8b66e0eba617p-52,
    0x1.caa8fbd36a2abp-52, 0x1.cc9e1c73bd690p-52, 0x1.ce95e3068e037p-52, 0x1.d0906328b8f6ep-52,
    0x1.d28db1037ef20p-52, 0x1.d48de1533c647p-52, 0x1.d691096e7f123p-52, 0x1.d8973f4d7fba5p-52,
    0x1.daa0999206e70p-52, 0x1.dcad2f8fc490ep-52, 0x1.debd195522e37p-52, 0x1.e0d06fb49d21cp-52,
    0x1.e2e74c4ea46f6p-52, 0x1.e501c99c1d188p-52, 0x1.e72002f97fe25p-52, 0x1.e94214b2abf0ap-52,
    0x1.eb681c0f76f08p-52, 0x1.ed9237610a73ap-52, 0x1.efc086101eca9p-52, 0x1.f1f328ac25321p-52,
    0x1.f42a40fb74d6dp-52, 0x1.f665f20c90168p-52, 0x1.f8a6604899782p-52, 0x1.faebb187122bfp-52,
    0x1.fd360d22fe785p-52, 0x1.ff859c118f60bp-52, 0x1.00ed447d3a075p-51, 0x1.021a8028fc947p-51,
    0x1.034a983a902abp-51, 0x1.047da4e3ef5c7p-51, 0x1.05b3bf6adb37ep-51, 0x1.06ed023a72668p-51,
    0x1.082988f632e17p-51, 0x1.0969708e8a254p-51, 0x1.0aacd7571c0c4p-51, 0x1.0bf3dd1eed448p-51,
    0x1.0d3ea34aa3d30p-51, 0x1.0e8d4cf116593p-51, 0x1.0fdffefa69fb6p-51, 0x1.1136e04207041p-51,
    0x1.129219bbb5d35p-51, 0x1.13f1d69c4096dp-51, 0x1.1556448602e3bp-51, 0x1.16bf93b9deef3p-51,
    0x1.182df74d21261p-51, 0x1.19a1a564eebacp-51, 0x1.1b1ad777f2f8ep-51, 0x1.1c99ca971a694p-51,
    0x1.1e1ebfbe4ae39p-51, 0x1.1fa9fc2e2d901p-51, 0x1.213bc9d04cc81p-51, 0x1.22d477a6fd3eep-51,
    0x1.24745a4ac9c24p-51, 0x1.261bcc77658e0p-51, 0x1.27cb2faa8592ep-51, 0x1.2982ecd770e78p-51,
    0x1.2b437532a0a52p-51, 0x1.2d0d43196db97p-51, 0x1.2ee0db1a978f5p-51, 0x1.30becd256aeeep-51,
    0x1.32a7b5e68a4a3p-51, 0x1.349c405ae12a3p-51, 0x1.369d27a33a840p-51, 0x1.38ab39256410ap-51,
    0x1.3ac7570ae88fap-51, 0x1.3cf27b31704a6p-51, 0x1.3f2dbaa60f475p-51, 0x1.417a49cb9e5dap-51,
    0x1.43d9815545e94p-51, 0x1.464ce44a73a15p-51, 0x1.48d62759c43bcp-51, 0x1.4b7739d6b5a27p-51,
    0x1.4e3250dcd8902p-51, 0x1.5109f53e9ac41p-51, 0x1.54011523a7e42p-51, 0x1.571b1a94ae41bp-51,
    0x1.5a5c08b718dd9p-51, 0x1.5dc8a243ad0fep-51, 0x1.61669cf861e4cp-51, 0x1.653ce7b006aeap-51,
    0x1.69540be9fe5c3p-51, 0x1.6db6b8d09e232p-51, 0x1.72728f05f7a34p-51, 0x1.7799556090673p-51,
    0x1.7d42df4d6ce8cp-51, 0x1.839030529f234p-51, 0x1.8ab0fbfaa7c14p-51, 0x1.92ee0946f4496p-51,
    0x1.9cbee014057abp-51, 0x1.a8fdc7894775ap-51, 0x1.b981f3878fdb1p-51, 0x1.d3bb48209ad33p-51
};
static const double zig_fi[256] = {
    0x1.0000000000000p+0, 0x1.f446ac979f087p-1, 0x1.eb7545b6ca915p-1, 0x1.e3f11e027f077p-1,
    0x1.dd36fa704de95p-1, 0x1.d70920657bcf2p-1, 0x1.d144978a119dcp-1, 0x1.cbd33a8a72debp-1,
    0x1.c6a5ecea9787fp-1, 0x1.c1b1cd9eebaeap-1, 0x1.bceeb4ee1dc82p-1, 0x1.b85653a8ff552p-1,
    0x1.b3e3a8234dd10p-1, 0x1.af92a3f6ce8a2p-1, 0x1.ab5fef17a2504p-1, 0x1.a748bd550c9e1p-1,
    0x1.a34aafdf5af0fp-1, 0x1.9f63bee651fd8p-1, 0x1.9b9228d240681p-1, 0x1.97d4657617ac1p-1,
    0x1.94291c21b7a47p-1, 0x1.908f1bd31714fp-1, 0x1.8d0554fe60aa8p-1, 0x1.898ad48badf02p-1,
    0x1.861ebfc37bcacp-1, 0x1.82c050f56cf6ep-1, 0x1.7f6ed4b20e2cbp-1, 0x1.7c29a779c6858p-1,
    0x1.78f033ca0b0d5p-1, 0x1.75c1f0770d856p-1, 0x1.729e5f43f6d12p-1, 0x1.6f850baea7aeep-1,
    0x1.6c7589e635a89p-1, 0x1.696f75e513b2ap-1, 0x1.667272a92e323p-1, 0x1.637e298550c18p-1,
    0x1.6092498802665p-1, 0x1.5dae86f4aff6ap-1, 0x1.5ad29acc85c89p-1, 0x1.57fe4264c8d8fp-1,
    0x1.55313f08d9e46p-1, 0x1.526b55a656cd5p-1, 0x1.4fac4e820b667p-1, 0x1.4cf3f4f494ec0p-1,
    0x1.4a42172dc5278p-1, 0x1.479685fdf5012p-1, 0x1.44f114a493679p-1, 0x1.425198a355fe3p-1,
    0x1.3fb7e99585b82p-1, 0x1.3d23e10af31a3p-1, 0x1.3a955a662cd0ep-1, 0x1.380c32bda00d5p-1,
    0x1.358848bf550e9p-1, 0x1.33097c9703a35p-1, 0x1.308fafd6438efp-1, 0x1.2e1ac55ea3beep-1,
    0x1.2baaa14d7954ap-1, 0x1.293f28e93cd15p-1, 0x1.26d84290504edp-1, 0x1.2475d5a90db84p-1,
    0x1.2217ca92ff7f2p-1, 0x1.1fbe0a9929620p-1, 0x1.1d687fe549969p-1, 0x1.1b171573fd111p-1,
    0x1.18c9b709b3c50p-1, 0x1.16805128639dap-1, 0x1.143ad105ea99cp-1, 0x1.11f9248311f38p-1,
    0x1.0fbb3a2325913p-1, 0x1.0d810104142a0p-1, 0x1.0b4a68d70d9aep-1, 0x1.091761d995d81p-1,
    0x1.06e7dccf03c36p-1, 0x1.04bbcafa63f2ep-1, 0x1.02931e18b822ap-1, 0x1.006dc85b8cac4p-1,
    0x1.fc9778c7bbda1p-2, 0x1.f859da7a900cap-2, 0x1.f4229cb2f7af3p-2, 0x1.eff1a717e8f95p-2,
    0x1.ebc6e20bd1f54p-2, 0x1.e7a236a4ec3c5p-2, 0x1.e3838ea5f9b85p-2, 0x1.df6ad47763a09p-2,
    0x1.db57f320b56b1p-2, 0x1.d74ad6426de33p-2, 0x1.d3436a1021080p-2, 0x1.cf419b4ae5b6dp-2,
    0x1.cb45573c0a848p-2, 0x1.c74e8bb00d7c7p-2, 0x1.c35d26f1d2cb8p-2, 0x1.bf7117c616a17p-2,
    0x1.bb8a4d6716d91p-2, 0x1.b7a8b7807131bp-2, 0x1.b3cc462b331cap-2, 0x1.aff4e9ea18552p-2,
    0x1.ac2293a5f5a9ep-2, 0x1.a85534aa4d880p-2, 0x1.a48cbea20c04dp-2, 0x1.a0c923946843ep-2,
    0x1.9d0a55e1e93dfp-2, 0x1.995048418c0c6p-2, 0x1.959aedbe09f93p-2, 0x1.91ea39b33cb17p-2,
    0x1.8e3e1fcb9f115p-2, 0x1.8a9693fde9188p-2, 0x1.86f38a8ac5ab6p-2, 0x1.8354f7faa0dd9p-2,
    0x1.7fbad11b8d911p-2, 0x1.7c250aff414b0p-2, 0x1.78939af9252ebp-2, 0x1.7506769c7b1edp-2,
    0x1.717d93ba9614cp-2, 0x1.6df8e86124caap-2, 0x1.6a786ad88de21p-2, 0x1.66fc11a25cbe2p-2,
    0x1.6383d377be515p-2, 0x1.600fa7480d2c8p-2, 0x1.5c9f84376c244p-2, 0x1.5933619d6eebep-2,
    0x1.55cb3703d0100p-2, 0x1.5266fc2533bedp-2, 0x1.4f06a8ebf6d92p-2, 0x1.4baa357109ca2p-2,
    0x1.485199fad6ad4p-2, 0x1.44fccefc324fep-2, 0x1.41abcd1357a19p-2, 0x1.3e5e8d08ed2dbp-2,
    0x1.3b1507cf143aep-2, 0x1.37cf368081379p-2, 0x1.348d125f9d19ep-2, 0x1.314e94d5af62fp-2,
    0x1.2e13b77210766p-2, 0x1.2adc73e963fddp-2, 0x1.27a8c414db11ep-2, 0x1.2478a1f17de89p-2,
    0x1.214c079f7cc9ep-2, 0x1.1e22ef6188116p-2, 0x1.1afd539c2f050p-2, 0x1.17db2ed5454e8p-2,
    0x1.14bc7bb34ee67p-2, 0x1.11a134fcf2423p-2, 0x1.0e895598709c4p-2, 0x1.0b74d88b242dap-2,
    0x1.0863b8f904336p-2, 0x1.0555f2242e9d9p-2, 0x1.024b7f6c7747ep-2, 0x1.fe88b89df93c5p-3,
    0x1.f88108cb83235p-3, 0x1.f27fe6ce998d2p-3, 0x1.ec854a4c99c44p-3, 0x1.e6912b2283cddp-3,
    0x1.e0a3816457184p-3, 0x1.dabc455c7900ap-3, 0x1.d4db6f8b2514fp-3, 0x1.cf00f8a5e6fccp-3,
    0x1.c92cd9971df53p-3, 0x1.c35f0b7d89d47p-3, 0x1.bd9787abe18a1p-3, 0x1.b7d647a8731aap-3,
    0x1.b21b452ccd13ap-3, 0x1.ac667a2571807p-3, 0x1.a6b7e0b19267ep-3, 0x1.a10f7322d7e3dp-3,
    0x1.9b6d2bfd2fe5ap-3, 0x1.95d105f6a7c27p-3, 0x1.903afbf74fa69p-3, 0x1.8aab09192815bp-3,
    0x1.852128a819a38p-3, 0x1.7f9d5621f7175p-3, 0x1.7a1f8d368a323p-3, 0x1.74a7c9c7ab5a6p-3,
    0x1.6f3607e964716p-3, 0x1.69ca43e21f25cp-3, 0x1.64647a2adf19cp-3, 0x1.5f04a76f883f9p-3,
    0x1.59aac88f31d6cp-3, 0x1.5456da9c86835p-3, 0x1.4f08dade31fc1p-3, 0x1.49c0c6cf5ce2dp-3,
    0x1.447e9c20375d5p-3, 0x1.3f4258b6931aep-3, 0x1.3a0bfaae8d7eep-3, 0x1.34db805b4ab88p-3,
    0x1.2fb0e847c2a65p-3, 0x1.2a8c3137a071ap-3, 0x1.256d5a2835eb7p-3, 0x1.2054625183c34p-3,
    0x1.1b41492757d42p-3, 0x1.16340e5a82d63p-3, 0x1.112cb1da26eb9p-3, 0x1.0c2b33d5209bap-3,
    0x1.072f94bb8bf85p-3, 0x1.0239d54067d2ap-3, 0x1.fa93ecb6b222cp-4, 0x1.f0bff29520e1cp-4,
    0x1.e6f7bf29aa54bp-4, 0x1.dd3b56176e88fp-4, 0x1.d38abb9bd91e5p-4, 0x1.c9e5f493b740ap-4,
    0x1.c04d0680b1015p-4, 0x1.b6bff78f2e233p-4, 0x1.ad3ece9caf633p-4, 0x1.a3c9933ea6286p-4,
    0x1.9a604dc9d5b19p-4, 0x1.9103075a4a0abp-4, 0x1.87b1c9dbf2852p-4, 0x1.7e6ca013eefd6p-4,
    0x1.753395aaa1176p-4, 0x1.6c06b73694a4cp-4, 0x1.62e6124854d18p-4, 0x1.59d1b577466a4p-4,
    0x1.50c9b06fa2baep-4, 0x1.47ce1401b2213p-4, 0x1.3edef23269a86p-4, 0x1.35fc5e4d93e70p-4,
    0x1.2d266cf9b3111p-4, 0x1.245d344dd0d91p-4, 0x1.1ba0cbe97897dp-4, 0x1.12f14d0f2179dp-4,
    0x1.0a4ed2c159625p-4, 0x1.01b979e30e497p-4, 0x1.f262c2b6c6e35p-5, 0x1.e16d547b25181p-5,
    0x1.d092efeadf162p-5, 0x1.bfd3e0f282a2cp-5, 0x1.af30790385f70p-5, 0x1.9ea90f9295563p-5,
    0x1.8e3e02a68b5abp-5, 0x1.7defb77af271ep-5, 0x1.6dbe9b398d064p-5, 0x1.5dab23cf2add4p-5,
    0x1.4db5d0e11275dp-5, 0x1.3ddf2ce98eecbp-5, 0x1.2e27ce83df497p-5, 0x1.1e9059f1f6abcp-5,
    0x1.0f1982e968011p-5, 0x1.ff881d718a5c4p-6, 0x1.e121adb828c75p-6, 0x1.c301983cd091ap-6,
    0x1.a529f4e22ebf8p-6, 0x1.879d1b600c10ap-6, 0x1.6a5daf40bbf82p-6, 0x1.4d6eaf2fbb064p-6,
    0x1.30d388dab5e13p-6, 0x1.1490334603012p-6, 0x1.f152a4f72dd49p-7, 0x1.ba48d274f8facp-7,
    0x1.841040d8da478p-7, 0x1.4eb96421acfe0p-7, 0x1.1a59229952f92p-7, 0x1.ce160f8ec6837p-8,
    0x1.69ea8d90cb85dp-8, 0x1.08a1f03b0b1fdp-8, 0x1.55f9f43c1b067p-9, 0x1.4a605b6b9f70fp-10
};
static const uint64_t zig_ki[256] = {
    0x0ef33d8025ef6a, 0x00000000000000, 0x0c08be98fbc6a8, 0x0da354fabd8142,
    0x0e51f67ec1eeea, 0x0eb255e9d3f77e, 0x0eef4b817ecab9, 0x0f19470afa44aa,
    0x0f37ed61ffcb18, 0x0f4f469561255c, 0x0f61a5e41ba396, 0x0f707a755396a4,
    0x0f7cb2ec28449a, 0x0f86f10c6357d3, 0x0f8fa6578325de, 0x0f9724c74dd0da,
    0x0f9da907dbf509, 0x0fa360f581fa74, 0x0fa86fde5b4bf8, 0x0facf160d354dc,
    0x0fb0fb6718b90f, 0x0fb49f8d5374c6, 0x0fb7ec2366fe77, 0x0fbaece9a1e50e,
    0x0fbdab9d040bed, 0x0fc03060ff6c57, 0x0fc2821037a248, 0x0fc4a67ae25bd1,
    0x0fc6a2977aee31, 0x0fc87aa92896a4, 0x0fca325e4bde85, 0x0fcbcce902231a,
    0x0fcd4d12f839c4, 0x0fceb54d8fec99, 0x0fd007bf1dc930, 0x0fd1464dd6c4e6,
    0x0fd272a8e2f450, 0x0fd38e4ff0c91e, 0x0fd49a9990b478, 0x0fd598b8920f53,
    0x0fd689c08e99ec, 0x0fd76ea9c8e832, 0x0fd848547b08e8, 0x0fd9178bad2c8c,
    0x0fd9dd07a7add2, 0x0fda9970105e8c, 0x0fdb4d5dc02e20, 0x0fdbf95c5bfcd0,
    0x0fdc9debb99a7d, 0x0fdd3b8118729d, 0x0fddd288342f90, 0x0fde6364369f64,
    0x0fdeee708d514e, 0x0fdf7401a6b42e, 0x0fdff46599ed40, 0x0fe06fe4bc24f2,
    0x0fe0e6c225a258, 0x0fe1593c28b84c, 0x0fe1c78cbc3f99, 0x0fe231e9db1caa,
    0x0fe29885da1b91, 0x0fe2fb8fb54186, 0x0fe35b33558d4a, 0x0fe3b799d0002a,
    0x0fe410e99ead7f, 0x0fe46746d47734, 0x0fe4bad34c095c, 0x0fe50baed29524,
    0x0fe559f74ebc78, 0x0fe5a5c8e41212, 0x0fe5ef3e138689, 0x0fe6366fd91078,
    0x0fe67b75c6d578, 0x0fe6be661e11aa, 0x0fe6ff55e5f4f2, 0x0fe73e5900a702,
    0x0fe77b823e9e39, 0x0fe7b6e37070a2, 0x0fe7f08d774243, 0x0fe8289053f08c,
    0x0fe85efb35173a, 0x0fe893dc840864, 0x0fe8c741f0cebc, 0x0fe8f9387d4ef6,
    0x0fe929cc879b1d, 0x0fe95909d388ea, 0x0fe986fb939aa2, 0x0fe9b3ac714866,
    0x0fe9df2694b6d5, 0x0fea0973abe67c, 0x0fea329cf166a4, 0x0fea5aab32952c,
    0x0fea81a6d5741a, 0x0feaa797de1cf0, 0x0feacc85f3d920, 0x0feaf07865e63c,
    0x0feb13762fec13, 0x0feb3585fe2a4a, 0x0feb56ae3162b4, 0x0feb76f4e284fa,
    0x0feb965fe62014, 0x0febb4f4cf9d7c, 0x0febd2b8f449d0, 0x0febefb16e2e3e,
    0x0fec0be31ebde8, 0x0fec2752b15a15, 0x0fec42049dafd3, 0x0fec5bfd29f196,
    0x0fec75406ceef4, 0x0fec8dd2500cb4, 0x0feca5b6911f12, 0x0fecbcf0c427fe,
    0x0fecd38454fb15, 0x0fece97488c8b3, 0x0fecfec47f91b7, 0x0fed1377358528,
    0x0fed278f844903, 0x0fed3b10242f4c, 0x0fed4dfbad586e, 0x0fed605498c3dd,
    0x0fed721d414fe8, 0x0fed8357e4a982, 0x0fed9406a42cc8, 0x0feda42b85b704,
    0x0fedb3c8746ab4, 0x0fedc2df416652, 0x0fedd171a46e52, 0x0feddf813c8ad3,
    0x0feded0f909980, 0x0fedfa1e0fd414, 0x0fee06ae124bc4, 0x0fee12c0d95a06,
    0x0fee1e579006e0, 0x0fee29734b6524, 0x0fee34150ae4bc, 0x0fee3e3db89b3c,
    0x0fee47ee2982f4, 0x0fee51271db086, 0x0fee59e9407f41, 0x0fee623528b42e,
    0x0fee6a0b5897f1, 0x0fee716c3e077a, 0x0fee7858327b82, 0x0fee7ecf7b06ba,
    0x0fee84d2484ab2, 0x0fee8a60b66343, 0x0fee8f7accc851, 0x0fee94207e25da,
    0x0fee9851a829ea, 0x0fee9c0e13485c, 0x0fee9f557273f4, 0x0feea22762ccae,
    0x0feea4836b42ac, 0x0feea668fc2d71, 0x0feea7d76ed6fa, 0x0feea8ce04fa0a,
    0x0feea94be8333b, 0x0feea950296410, 0x0feea8d9c0075e, 0x0feea7e7897654,
    0x0feea678481d24, 0x0feea48aa29e83, 0x0feea21d22e4da, 0x0fee9f2e352024,
    0x0fee9bbc26af2e, 0x0fee97c524f2e4, 0x0fee93473c0a3a, 0x0fee8e40557516,
    0x0fee88ae369c7a, 0x0fee828e7f3dfd, 0x0fee7bdea7b888, 0x0fee749bff37ff,
    0x0fee6cc3a9bd5e, 0x0fee64529e007e, 0x0fee5b45a32888, 0x0fee51994e57b6,
    0x0fee474a0006cf, 0x0fee3c53e12c50, 0x0fee30b2e02ad8, 0x0fee2462ad8205,
    0x0fee175eb83c5a, 0x0fee09a22a1447, 0x0fedfb27e349cc, 0x0fedebea76216c,
    0x0feddbe422047e, 0x0fedcb0ece39d3, 0x0fedb964042cf4, 0x0feda6dce938c9,
    0x0fed937237e98d, 0x0fed7f1c38a836, 0x0fed69d2b9c02b, 0x0fed538d06ae00,
    0x0fed3c41dea422, 0x0fed23e76a2fd8, 0x0fed0a732fe644, 0x0fecefda07fe34,
    0x0fecd4100eb7b8, 0x0fecb708956eb4, 0x0fec98b61230c1, 0x0fec790a0da978,
    0x0fec57f50f31fe, 0x0fec356686c962, 0x0fec114cb4b335, 0x0febeb948e6fd0,
    0x0febc429a0b692, 0x0feb9af5ee0cdc, 0x0feb6fe1c98542, 0x0feb42d3ad1f9e,
    0x0feb13b00b2d4b, 0x0feae2591a02e9, 0x0feaaeae992257, 0x0fea788d8ee326,
    0x0fea3fcffd73e5, 0x0fea044c8dd9f6, 0x0fe9c5d62f563b, 0x0fe9843ba947a4,
    0x0fe93f471d4728, 0x0fe8f6bd76c5d6, 0x0fe8aa5dc4e8e6, 0x0fe859e07ab1ea,
    0x0fe804f690a940, 0x0fe7ab488233c0, 0x0fe74c751f6aa5, 0x0fe6e8102aa202,
    0x0fe67da0b6abd8, 0x0fe60c9f38307e, 0x0fe5947338f742, 0x0fe51470977280,
    0x0fe48bd436f458, 0x0fe3f9bffd1e37, 0x0fe35d35eeb19c, 0x0fe2b5122fe4fe,
    0x0fe20003995557, 0x0fe13c82788314, 0x0fe068c4ee67b0, 0x0fdf82b02b71aa,
    0x0fde87c57efeaa, 0x0fdd7509c63bfd, 0x0fdc46e529bf13, 0x0fdaf8f82e0282,
    0x0fd985e1b2ba75, 0x0fd7e6ef48cf04, 0x0fd613adbd650b, 0x0fd40149e2f012,
    0x0fd1a1a7b4c7ac, 0x0fcee204761f9e, 0x0fcba8d85e11b2, 0x0fc7d26ecd2d22,
    0x0fc32b2f1e22ed, 0x0fbd6581c0b83a, 0x0fb606c4005434, 0x0fac40582a2874,
    0x0f9e971e014598, 0x0f89fa48a41dfc, 0x0f66c5f7f0302c, 0x0f1a5a4b331c4a
};

/* Philox4x64-10 (Salmon, Moraes, Dror and Shaw, "Parallel random numbers: as
 * easy as 1, 2, 3", SC'11) as numpy's Philox runs it.  The key is (seed, 0)
 * and a trial's stream starts from the counter (0, trial, purpose, 0)
 * (rng.stream); before each block of four outputs the counter is
 * incremented with carry, and the block's four outputs are used in order. */
#define PHILOX_M0 0xD2E7470EE14C6C93ULL
#define PHILOX_M1 0xCA5A826395121157ULL
#define PHILOX_W0 0x9E3779B97F4A7C15ULL
#define PHILOX_W1 0xBB67AE8584CAA73BULL
#define PHILOX_ROUNDS 10

/* The raw draws normals keeps of a stream, 2 KiB, which stay in L1. */
#define RAW 256

/* One trial's stream: the counter of its last block and its raw draws
 * raw[pos .. RAW) not yet used. */
struct stream {
    uint64_t ctr[4];
    int pos;
    uint64_t raw[RAW];
};

/* The stream's next RAW / 4 Philox blocks into its raw draws.  The blocks
 * depend on each other only through the counter, so the processor overlaps
 * their chains of multiplies. */
static void philox_fill(struct stream *s, uint64_t seed)
{
    uint64_t *ctr = s->ctr, *out = s->raw;
    for (int b = 0; b < RAW / 4; b++, out += 4) {
        if (++ctr[0] == 0 && ++ctr[1] == 0 && ++ctr[2] == 0)
            ++ctr[3];
        uint64_t c0 = ctr[0], c1 = ctr[1], c2 = ctr[2], c3 = ctr[3], k0 = seed, k1 = 0;
        for (int round = 0; round < PHILOX_ROUNDS; round++) {
            if (round) {
                k0 += PHILOX_W0;
                k1 += PHILOX_W1;
            }
            const unsigned __int128 p0 = (unsigned __int128)PHILOX_M0 * c0;
            const unsigned __int128 p1 = (unsigned __int128)PHILOX_M1 * c2;
            c0 = (uint64_t)(p1 >> 64) ^ c1 ^ k0;
            c1 = (uint64_t)p1;
            c2 = (uint64_t)(p0 >> 64) ^ c3 ^ k1;
            c3 = (uint64_t)p0;
        }
        out[0] = c0;
        out[1] = c1;
        out[2] = c2;
        out[3] = c3;
    }
    s->pos = 0;
}

/* The stream's next raw draw, refilling its buffer when it is used up. */
static inline uint64_t next64(struct stream *s, uint64_t seed)
{
    if (s->pos == RAW)
        philox_fill(s, seed);
    return s->raw[s->pos++];
}

static inline double next_double(struct stream *s, uint64_t seed)
{
    return (next64(s, seed) >> 11) * (1.0 / 9007199254740992.0);
}

/* numpy's random_standard_normal: from each raw draw r, the layer
 * idx = r & 0xff, the sign bit 8 and the 52 bits rabs above it give
 * x = +-rabs wi[idx], taken when rabs < ki[idx]; else the tail beyond r
 * (idx 0) or the wedge test against exp(-x^2/2), with uniforms
 * u = (draw >> 11) 2^-53, and on a rejection the next draw.  log1p and exp
 * are libm's, as numpy's. */
static inline double gauss(struct stream *s, uint64_t seed)
{
    for (;;) {
        const uint64_t r = next64(s, seed);
        const int idx = r & 0xff;
        const uint64_t rabs = (r >> 9) & 0x000fffffffffffffULL;
        double x = (double)rabs * zig_wi[idx];
        if ((r >> 8) & 1)
            x = -x;
        if (rabs < zig_ki[idx])
            return x;
        if (idx == 0) {
            for (;;) {
                const double xx = -ZIG_INV_R * log1p(-next_double(s, seed));
                const double yy = -log1p(-next_double(s, seed));
                if (yy + yy > xx * xx)
                    return (rabs >> 8) & 1 ? -(ZIG_R + xx) : ZIG_R + xx;
            }
        }
        if ((zig_fi[idx - 1] - zig_fi[idx]) * next_double(s, seed) + zig_fi[idx]
            < exp(-0.5 * x * x))
            return x;
    }
}

/* The ziggurat's first test in avx512f, 8 draws at a time, built where the
 * clones are: the normals of raw[0 .. n) into out, for the largest
 * n <= min(avail, want) that whole vectors reach before the first draw that
 * fails the test.  rabs, below 2^52, converts exactly as the double
 * 2^52 + rabs less 2^52.  The lanes before the first failing one are
 * stored; gauss takes that one. */
#ifdef ISA_CLONE
#include <immintrin.h>

__attribute__((target("avx512f")))
static int fast_normals(const uint64_t *raw, int avail, int want, double *out)
{
    const int most = avail < want ? avail : want;
    const __m512i low8 = _mm512_set1_epi64(0xff), low52 = _mm512_set1_epi64(0x000fffffffffffffLL);
    const __m512d two52 = _mm512_set1_pd(4503599627370496.0);
    int n = 0;
    for (; n + 8 <= most; n += 8) {
        const __m512i r = _mm512_loadu_si512(raw + n);
        const __m512i idx = _mm512_and_si512(r, low8);
        const __m512i rabs = _mm512_and_si512(_mm512_srli_epi64(r, 9), low52);
        const __mmask8 ok = _mm512_cmplt_epu64_mask(rabs, _mm512_i64gather_epi64(idx, zig_ki, 8));
        const __m512d a = _mm512_sub_pd(
            _mm512_castsi512_pd(_mm512_or_si512(rabs, _mm512_castpd_si512(two52))), two52);
        const __m512i x = _mm512_xor_si512(
            _mm512_castpd_si512(_mm512_mul_pd(a, _mm512_i64gather_pd(idx, zig_wi, 8))),
            _mm512_slli_epi64(_mm512_srli_epi64(r, 8), 63));
        if (ok != 0xff) {
            const int taken = __builtin_ctz(~(unsigned)ok);
            _mm512_mask_storeu_pd(out + n, (__mmask8)((1u << taken) - 1), _mm512_castsi512_pd(x));
            return n + taken;
        }
        _mm512_storeu_pd(out + n, _mm512_castsi512_pd(x));
    }
    return n;
}
#endif

/* The (quads, rows, m) planes of numpy's standard normal draws of the rows
 * trials' streams (seed, trials[row], purpose), C-contiguous in out: row
 * row of plane q is rng.stream(seed, trials[row], purpose)'s normals
 * q m .. q m + m - 1 (_numpy_kernel.normals).  Where fast_normals is built
 * and the CPU has avx512f, it makes the draws that pass the ziggurat's
 * first test; the rest, and all draws elsewhere, are gauss's, so every
 * build gives numpy's bits. */
void normals(uint64_t seed, uint64_t purpose, int rows, const uint64_t *trials, int quads,
             int m, double *out)
{
    struct stream s;
#ifdef ISA_CLONE
    __builtin_cpu_init();
    const int vector = __builtin_cpu_supports("avx512f");
#endif
    for (int row = 0; row < rows; row++) {
        s.ctr[0] = s.ctr[3] = 0;
        s.ctr[1] = trials[row];
        s.ctr[2] = purpose;
        s.pos = RAW;
        for (int q = 0; q < quads; q++) {
            double *x = out + ((size_t)q * rows + row) * m;
            for (int j = 0; j < m;) {
#ifdef ISA_CLONE
                if (vector) {
                    const int n = fast_normals(s.raw + s.pos, RAW - s.pos, m - j, x + j);
                    s.pos += n;
                    j += n;
                    if (j == m)
                        break;
                }
#endif
                x[j++] = gauss(&s, seed);
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
