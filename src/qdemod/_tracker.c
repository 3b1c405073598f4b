/*
 * The two compiled loops of qdemod, built and loaded by qdemod._tracker.
 *
 * track_block: the inner loop of one tracker history block for every row of
 * a batch.  qdemod.pll forms the block's per-sample constants, (n, rows)
 * arrays in C order, and the contribution of the records before the block
 * (folded into cbase).  This function adds the lags inside the block, closes
 * the loop sample by sample and writes the block's records and tracker
 * outputs; it is the compiled form of pll._track_block.
 *
 * Per sample i and row r, with k = 1 - l0 and c = cbase - (in-block lags):
 *   l0 == 0: u = c (the closure is explicit);
 *   else:    u += dpsi, then Halley on f(u) = k u + l0 amp sin u - c, at
 *            most CLOSURE_STEPS steps, each clipped to +-1 rad.  With
 *            ls = l0 amp sin u, lc = l0 amp cos u, f' = lc + k, r = f/f'
 *            and h = ls/(2f'), the step is r/(1 + r h), or Newton's r where
 *            1 + r h <= 0 (far from the root, where Halley's step points
 *            away from it); the row stops once the error predicted after an
 *            unclipped step, (|lc/(6f')| + h^2) |step|^3, is below
 *            CLOSURE_TOL.
 * Then phip = q - u and rec = r0 + (amp sin u - u).  A NaN step is never
 * clipped and never stops the iteration, and a clipped step never stops it.
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

/* trev holds the tracker taps for lags nt-1 .. 1; u carries each row's
 * closure state from block to block; rec and phip have exactly n rows of
 * `rows` entries. */
void track_block(int n, int rows, int nt, double l0,
                 const double *cbase, const double *amp,
                 const double *dpsi, const double *q, const double *r0,
                 const double *trev, double *u, double *rec, double *phip)
{
    const double k = 1.0 - l0;
    for (int i = 0; i < n; i++) {
        const size_t o = (size_t)i * rows;
        const double *w = trev + (nt - 1 - i);  /* weights of lags i .. 1 */
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
            const double c = cbase[o + r] - lag[r];
            double ur;
            if (l0 == 0.0) {
                ur = c;
            } else {
                const double li = l0 * amp[o + r];
                ur = u[r] + dpsi[o + r];
                for (int it = 0; it < CLOSURE_STEPS; it++) {
                    const double ls = sin(ur) * li, lc = cos(ur) * li;
                    const double fp = lc + k;
                    const double rt = (ur * k + ls - c) / fp;
                    const double h = ls / (2.0 * fp);
                    const double den = 1.0 + rt * h;
                    double step = den > 0.0 ? rt / den : rt;
                    const double a = fabs(step);
                    const double err = (fabs(lc / (6.0 * fp)) + h * h) * (a * a * a);
                    if (a > 1.0)
                        step = step > 0.0 ? 1.0 : -1.0;
                    ur -= step;
                    if (err < CLOSURE_TOL && a <= 1.0)
                        break;
                }
            }
            u[r] = ur;
            phip[o + r] = q[o + r] - ur;
            rec[o + r] = r0[o + r] + (sin(ur) * amp[o + r] - ur);
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
