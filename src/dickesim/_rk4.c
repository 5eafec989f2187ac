/* The steps of one block of fixed-step RK4, for dickesim.evolution._rk4.
 *
 * Each step's Hamiltonians are built here from a few real coefficients per
 * time.  hamiltonian_values writes one model's Hamiltonian at one time on
 * the model's support, in the words of the model's dense builder in
 * dickesim.model at the same coefficients, its numpy formula:
 *
 *   chain (kind 0), c = (Omega_r, Omega_b), parts (K_r, K_b, D), all real:
 *       H = (Omega_r K_r + Omega_b K_b) + delta D, with imaginary part +0
 *       (reduced_hamiltonian);
 *   full (kind 1), c = (Re p, Im p, cr, cb) with p = exp(-i delta t),
 *       cr = Omega_r/2 and cb = Omega_b/2, parts (R, R^dag, B, B^dag), the
 *       red and blue sideband operators and their adjoints:
 *       H = cr (p R + p* R^dag) + cb (p* B + p B^dag)   (full_hamiltonian).
 *
 * Each complex product is written out on doubles as numpy's multiply loop
 * computes it, (a + bi)(c + di) = (ac - bd, ad + bc), and a real factor
 * enters as c + 0i, as numpy promotes it.  numpy's SIMD loop may fuse one
 * product of each pair into the sum; here every product has a real factor
 * (an operator entry, cr or cb), whose other product is an exact zero, so
 * fused and unfused rounding agree unless a product underflows.  C99
 * _Complex multiplication is not used, because its inf/nan recovery
 * (__muldc3) differs from numpy.
 *
 * The full model's support is grouped by the one operator that is nonzero
 * at each entry: entries bounds[g] .. bounds[g + 1] - 1 are those of part
 * g.  Every other operator is zero there, with the signs of its entry at
 * (0, 0), the last of its part, so the three other terms of an entry are
 * the same for the whole group: they are computed once per call, and each
 * entry costs two complex products.
 *
 * Before each step the matrices at t, t + dt/2 and t + dt are written into
 * a dense buffer of three.  A step then performs the floating-point
 * operations that numpy performs for this update, in numpy's order, so
 * every state word equals numpy's on the same matrices:
 *
 *   y1 = H1 psi,  y2 = H2 (psi + c_h y1),  y3 = H2 (psi + c_h y2),
 *   y4 = H3 (psi + c_f y3),  psi <- psi + c_s (((y1 + 2 y2) + 2 y3) + y4).
 *
 * The matrix-vector products call the zgemv that numpy's ndarray.dot calls,
 * inside numpy's own BLAS, with the arguments that numpy passes for a
 * C-contiguous matrix: row-major, no transpose, alpha 1, beta 0 and unit
 * strides.  The doubling 2 y stays a product with 2 + 0i: y + y can differ
 * from it in the sign of a zero.  Every step coefficient has real part 0
 * or 2, so its real product is exact.  Build with -ffp-contract=off: a
 * contraction could fuse a product into a sum and skip its rounding, which
 * can flip the sign of an underflowed zero, and elsewhere a last bit.
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

/* out = a*b, as numpy's complex multiply loop; out may be a or b */
static inline void mul(double *out, const double *a, const double *b)
{
    double re = a[0] * b[0] - a[1] * b[1];
    double im = a[0] * b[1] + a[1] * b[0];
    out[0] = re;
    out[1] = im;
}

static inline void add(double *out, const double *a, const double *b)
{
    out[0] = a[0] + b[0];
    out[1] = a[1] + b[1];
}

/* Write the Hamiltonian of model kind at the coefficients c: its value at
 * support entry j to the complex number h[at[j]], and its value off the
 * support to off.  parts holds each operator's s + 1 entries, doubles for
 * the chain and complex numbers for the full model, and bounds its groups. */
void hamiltonian_values(int64_t kind, const double *c, const double *parts,
                        const int64_t *bounds, int64_t s, double delta,
                        const int64_t *at, double *h, double *off)
{
    if (kind == 0) {
        const double *kr = parts, *kb = parts + (s + 1), *dn = parts + 2 * (s + 1);
        for (int64_t j = 0; j <= s; j++) {
            double *v = j < s ? h + 2 * at[j] : off;
            v[0] = (c[0] * kr[j] + c[1] * kb[j]) + delta * dn[j];
            v[1] = 0.0;
        }
        return;
    }
    const double p[2] = {c[0], c[1]}, conj[2] = {c[0], -c[1]};
    const double cr[2] = {c[2], 0.0}, cb[2] = {c[3], 0.0};
    const double *phase[4] = {p, conj, conj, p}, *rate[2] = {cr, cb};
    double zero[4][2], sum[2][2];
    for (int g = 0; g < 4; g++)
        mul(zero[g], phase[g], parts + 2 * (g * (s + 1) + s));
    for (int k = 0; k < 2; k++) {
        add(sum[k], zero[2 * k], zero[2 * k + 1]);
        mul(sum[k], rate[k], sum[k]);
    }
    add(off, sum[0], sum[1]);
    /* an entry of group g puts its own term in place of zero[g]; a sum or
     * product of two doubles does not depend on their order, signed zeros
     * included, so this is numpy's arithmetic for that entry */
    for (int g = 0; g < 4; g++) {
        const double *part = parts + 2 * g * (s + 1);
        for (int64_t j = bounds[g]; j < bounds[g + 1]; j++) {
            double v[2];
            mul(v, phase[g], part + 2 * j);
            add(v, v, zero[g ^ 1]);
            mul(v, rate[g / 2], v);
            add(h + 2 * at[j], v, sum[1 - g / 2]);
        }
    }
}

/* Write into the dd-entry matrix h the Hamiltonian at c.  The entries off
 * the support always equal h's entry (0, 0), which is off it, so they are
 * rewritten, and the support after them, only when the new off-support
 * value differs from that word in any bit; a nan compares by its bits. */
static void build(int64_t kind, const double *c, const double *parts,
                  const int64_t *bounds, const int64_t *support, int64_t s,
                  double delta, double *h, int64_t dd)
{
    double off[2];
    hamiltonian_values(kind, c, parts, bounds, s, delta, support, h, off);
    if (memcmp(h, off, sizeof off) != 0) {
        for (int64_t i = 0; i < dd; i++)
            memcpy(h + 2 * i, off, sizeof off);
        hamiltonian_values(kind, c, parts, bounds, s, delta, support, h, off);
    }
}

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

/* Run steps start + 1 .. start + m of the block whose coefficients hold n
 * rows at t, then n at t + dt/2, then n at t + dt, each of 2 (chain) or 4
 * (full model) doubles.  The model is kind with its s support entries
 * (distinct flat indices in [1, d*d)), parts, bounds and delta, as
 * hamiltonian_values reads them.  h is the buffer of three d x d complex
 * matrices in row-major order; its entries off the support must equal each
 * matrix's (0, 0) entry, as a zeroed buffer's do, and they still do on
 * return.  coef holds c_h, c_f and c_s as (re, im) pairs; work holds 5 d
 * complex numbers.  After each step whose number is capture[pos], psi is
 * stored as row pos of states and pos advances.  Returns the next capture
 * slot. */
int64_t rk4_block(void *zgemv_ptr, const double *coefs, int64_t n, int64_t m,
                  int64_t start, int64_t pos, int64_t kind, const int64_t *support,
                  int64_t s, const double *parts, const int64_t *bounds, double delta,
                  double *h, int64_t d, const double *coef, double *psi, double *work,
                  const int64_t *capture, int64_t n_capture, double *states)
{
    zgemv_fn zgemv = (zgemv_fn)zgemv_ptr;
    const double *c_h = coef, *c_f = coef + 2, *c_s = coef + 4;
    double *y1 = work, *y2 = work + 2 * d, *y3 = work + 4 * d;
    double *y4 = work + 6 * d, *arg = work + 8 * d;
    const int64_t size = 2 * d * d;       /* doubles per Hamiltonian */
    const int64_t width = kind == 0 ? 2 : 4; /* coefficients per time */
    double *h1 = h, *h2 = h + size, *h3 = h + 2 * size;

    for (int64_t k = 0; k < m; k++) {
        build(kind, coefs + k * width, parts, bounds, support, s, delta, h1, d * d);
        build(kind, coefs + (n + k) * width, parts, bounds, support, s, delta, h2, d * d);
        build(kind, coefs + (2 * n + k) * width, parts, bounds, support, s, delta, h3, d * d);
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
