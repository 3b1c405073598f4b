/*
 * The two compiled loops of qdemod, built and loaded by qdemod._tracker.
 *
 * track_block: one tracker history block of a row group, closed sample by
 * sample; the compiled form of pll._track_block.  It reads the block
 * straight from the group's own (rows, m) arrays, each with its row stride:
 * the mean phase phibar, the quadratures x0 (NULL for squeezed_z) and y0,
 * and the far history, the lags that reach before the block (qdemod.pll
 * forms it by FFT).  It copies each row's tile into (n, rows) work buffers,
 * forms the closure constants there, adds the lags inside the block, closes
 * the loop in the tracking error e and writes the block's records into fr
 * and tracker outputs into phip.
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
 *            CLOSURE_TOL.
 * Then phip = phibar - e and rec = (phibar + z) + ((X sin e + Y cos e) - e).
 * For squeezed_z the Y terms are left out, as is the cos that only they
 * read.  A NaN step is never clipped and never stops the iteration, and a
 * clipped step never stops it.
 *
 * levinson: the symmetric Toeplitz solve of the Wiener-Hopf normal
 * equations, the compiled form of wiener._levinson.
 *
 * Both follow their numpy forms operation for operation, so build them
 * without floating-point contraction.
 */
#include <math.h>
#include <stddef.h>

#define CLOSURE_STEPS 8
#define CLOSURE_TOL 1e-13

/* A row group, bound once (qdemod._tracker.Kernel.__call__ checks every
 * array).  Row r of an array a starts at a + r * a_stride; each row is
 * contiguous.  trev holds the tracker taps for lags nt-1 .. 1, e each row's
 * tracking error, carried from sample to sample and block to block, and
 * work 5 n rows doubles.  fr holds nt steady-state records before the
 * loop's record, so sample j's record is fr[nt + j]. */
struct group {
    int n, rows, nt;
    double l0, twoa;
    const double *trev, *phibar, *x0, *y0;
    ptrdiff_t phibar_stride, x0_stride, y0_stride, fr_stride, phip_stride;
    double *e, *fr, *phip, *work;
};

/* Samples j0 .. j0 + n - 1; far (rows of n entries) is their far history. */
void track_block(const struct group *g, int j0, const double *far, ptrdiff_t far_stride)
{
    const int n = g->n, rows = g->rows, nt = g->nt;
    const double l0 = g->l0, twoa = g->twoa, k = 1.0 - l0;
    const size_t tile = (size_t)n * rows;
    double *X = g->work, *Y = X + tile, *r0 = Y + tile, *cb = r0 + tile, *rec = cb + tile;
    for (int r = 0; r < rows; r++) {
        const double *pb = g->phibar + r * g->phibar_stride + j0;
        const double *y0 = g->y0 + r * g->y0_stride + j0;
        const double *x0 = g->x0 ? g->x0 + r * g->x0_stride + j0 : NULL;
        const double *fa = far + r * far_stride;
        for (int i = 0; i < n; i++) {
            const size_t o = (size_t)i * rows + r;
            if (x0) {
                X[o] = x0[i] / twoa + 1.0;
                Y[o] = y0[i] / twoa;
                r0[o] = pb[i];
                cb[o] = k * pb[i] - fa[i];
            } else {
                const double z = y0[i] / twoa;
                X[o] = 1.0;
                Y[o] = 0.0;
                r0[o] = pb[i] + z;
                cb[o] = k * pb[i] - l0 * z - fa[i];
            }
        }
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
        for (int r = 0; r < rows; r++) {
            const double c = cb[o + r] - lag[r], x = X[o + r], y = Y[o + r];
            double er;
            if (l0 == 0.0) {
                er = c;
            } else {
                const double lx = l0 * x, ly = l0 * y;
                er = g->e[r];
                for (int it = 0; it < CLOSURE_STEPS; it++) {
                    const double s = sin(er), co = cos(er);
                    const double ls = g->x0 ? s * lx + co * ly : s * lx;
                    const double lc = g->x0 ? co * lx - s * ly : co * lx;
                    const double fp = lc + k;
                    const double rt = (er * k + ls - c) / fp;
                    const double h = ls / (2.0 * fp);
                    const double den = 1.0 + rt * h;
                    double step = den > 0.0 ? rt / den : rt;
                    const double a = fabs(step);
                    const double err = (fabs(lc / (6.0 * fp)) + h * h) * (a * a * a);
                    if (a > 1.0)
                        step = step > 0.0 ? 1.0 : -1.0;
                    er -= step;
                    if (err < CLOSURE_TOL && a <= 1.0)
                        break;
                }
            }
            g->e[r] = er;
            const double rr = r0[o + r]
                + ((g->x0 ? sin(er) * x + cos(er) * y : sin(er) * x) - er);
            rec[o + r] = rr;
            g->fr[r * g->fr_stride + nt + j0 + i] = rr;
            g->phip[r * g->phip_stride + j0 + i] = g->phibar[r * g->phibar_stride + j0 + i] - er;
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
