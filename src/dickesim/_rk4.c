/* The steps of one block of fixed-step RK4, for dickesim.evolution._rk4.
 *
 * The Hamiltonians come as support values: for each matrix, its entries at
 * the s flat indices of the support, then the one value of every entry off
 * the support.  Before each step the matrices at t, t + dt/2 and t + dt are
 * written into a dense buffer of three, in the words that numpy's expansion
 * of the same values (dickesim.model.expand) gives.  A step then performs
 * the floating-point operations that numpy performs for this update, in
 * numpy's order, so every state word equals numpy's:
 *
 *   y1 = H1 psi,  y2 = H2 (psi + c_h y1),  y3 = H2 (psi + c_h y2),
 *   y4 = H3 (psi + c_f y3),  psi <- psi + c_s (((y1 + 2 y2) + 2 y3) + y4).
 *
 * The matrix-vector products call the zgemv that numpy's ndarray.dot calls,
 * inside numpy's own BLAS, with the arguments that numpy passes for a
 * C-contiguous matrix: row-major, no transpose, alpha 1, beta 0 and unit
 * strides.  Each complex product c*y is written out on doubles as numpy's
 * multiply loop computes it, (cr*yr - ci*yi, cr*yi + ci*yr); C99 _Complex
 * multiplication is not used, because its inf/nan recovery (__muldc3)
 * differs from numpy.  The doubling 2 y stays a product with 2 + 0i: y + y
 * can differ from it in the sign of a zero.  Every coefficient has cr = 0
 * or 2, so cr*yr is exact and numpy's loops, fused or not, agree with
 * rounding each product.  Build with -ffp-contract=off: a contraction could
 * fuse a ci product into the sum and skip its rounding, which here can flip
 * the sign of an underflowed zero, and with any other coefficient a last
 * bit.
 *
 * BLAS_INT is the integer width of the zgemv symbol that the loader found.
 */

#include <stdint.h>
#include <string.h>

#ifndef BLAS_INT
#error "compile with -DBLAS_INT=<the zgemv symbol's integer type>"
#endif

enum { CBLAS_ROW_MAJOR = 101, CBLAS_NO_TRANS = 111 };

typedef void (*zgemv_fn)(int order, int trans, BLAS_INT m, BLAS_INT n,
                         const double *alpha, const double *a, BLAS_INT lda,
                         const double *x, BLAS_INT incx, const double *beta,
                         double *y, BLAS_INT incy);

static const double ONE[2] = {1.0, 0.0};
static const double ZERO[2] = {0.0, 0.0};
static const double TWO[2] = {2.0, 0.0};

/* out = a + c*y on d complex numbers, as numpy's add(a, multiply(c, y));
 * out may be a or y */
static void add_scaled(double *out, const double *a, const double *c,
                       const double *y, int64_t d)
{
    for (int64_t i = 0; i < 2 * d; i += 2) {
        double re = c[0] * y[i] - c[1] * y[i + 1];
        double im = c[0] * y[i + 1] + c[1] * y[i];
        out[i] = a[i] + re;
        out[i + 1] = a[i + 1] + im;
    }
}

/* Write into the dd-entry matrix h the one whose s + 1 complex values are
 * v: v[j] at the flat index support[j], and v[s] at every other entry.  The
 * entries off the support always equal h's entry (0, 0), which is off it,
 * so they are rewritten only when v[s] differs from that word in any bit;
 * a nan compares by its bits too. */
static void expand(double *h, const double *v, const int64_t *support,
                   int64_t s, int64_t dd)
{
    const double *off = v + 2 * s;
    if (memcmp(h, off, 2 * sizeof(double)) != 0)
        for (int64_t i = 0; i < dd; i++)
            memcpy(h + 2 * i, off, 2 * sizeof(double));
    for (int64_t j = 0; j < s; j++)
        memcpy(h + 2 * support[j], v + 2 * j, 2 * sizeof(double));
}

/* Run steps start + 1 .. start + m of the block whose values hold the n
 * Hamiltonians at t, then the n at t + dt/2, then the n at t + dt, each as
 * s + 1 complex values on the support (distinct flat indices in [1, d*d)).
 * h is the buffer of three d x d complex matrices in row-major order; its
 * entries off the support must equal each matrix's (0, 0) entry, as a
 * zeroed buffer's do, and they still do on return.  coef holds c_h, c_f
 * and c_s as (re, im) pairs; work holds 5 d complex numbers.  After each
 * step whose number is capture[pos], psi is stored as row pos of states and
 * pos advances.  Returns the next capture slot. */
int64_t rk4_block(void *zgemv_ptr, const double *values, const int64_t *support,
                  int64_t s, double *h, int64_t n, int64_t m, int64_t d,
                  const double *coef, double *psi, double *work, int64_t start,
                  const int64_t *capture, int64_t n_capture, int64_t pos,
                  double *states)
{
    zgemv_fn zgemv = (zgemv_fn)zgemv_ptr;
    const double *c_h = coef, *c_f = coef + 2, *c_s = coef + 4;
    double *y1 = work, *y2 = work + 2 * d, *y3 = work + 4 * d;
    double *y4 = work + 6 * d, *arg = work + 8 * d;
    const int64_t size = 2 * d * d;  /* doubles per Hamiltonian */
    const int64_t row = 2 * (s + 1); /* doubles per value row */
    double *h1 = h, *h2 = h + size, *h3 = h + 2 * size;

    for (int64_t k = 0; k < m; k++) {
        expand(h1, values + k * row, support, s, d * d);
        expand(h2, values + (n + k) * row, support, s, d * d);
        expand(h3, values + (2 * n + k) * row, support, s, d * d);
        zgemv(CBLAS_ROW_MAJOR, CBLAS_NO_TRANS, d, d, ONE, h1, d, psi, 1, ZERO, y1, 1);
        add_scaled(arg, psi, c_h, y1, d);
        zgemv(CBLAS_ROW_MAJOR, CBLAS_NO_TRANS, d, d, ONE, h2, d, arg, 1, ZERO, y2, 1);
        add_scaled(arg, psi, c_h, y2, d);
        zgemv(CBLAS_ROW_MAJOR, CBLAS_NO_TRANS, d, d, ONE, h2, d, arg, 1, ZERO, y3, 1);
        add_scaled(arg, psi, c_f, y3, d);
        zgemv(CBLAS_ROW_MAJOR, CBLAS_NO_TRANS, d, d, ONE, h3, d, arg, 1, ZERO, y4, 1);
        add_scaled(y1, y1, TWO, y2, d);
        add_scaled(y1, y1, TWO, y3, d);
        for (int64_t i = 0; i < 2 * d; i++)
            y1[i] = y1[i] + y4[i];
        add_scaled(psi, psi, c_s, y1, d);
        if (pos < n_capture && capture[pos] == start + k + 1) {
            memcpy(states + 2 * d * pos, psi, 2 * d * sizeof(double));
            pos++;
        }
    }
    return pos;
}
