/* Declarations shared by the kernel's two translation units: _kernel.c
 * (entry points, generic and portable rows, program runner, step loop,
 * tau recoder; compiled together with the cffi wrapper) and _rows.c (the
 * register-resident fold rows, compiled on their own and linked in). */

#ifndef GF2M_KERNEL_H
#define GF2M_KERNEL_H

#include <stdint.h>

#define GF2M_MAX_WORDS 16 /* supports m <= 1024 */

typedef struct {
    int m;
    int nw;
    int fold_n; /* >= 0: reduce by two type II folds with this n */
    int nterms;
    const int32_t *terms; /* generic reduction: degrees t_k of the tail */
} gf2m_field;

typedef void (*mul_rows_fn)(const gf2m_field *, const uint64_t *,
                            const uint64_t *, uint64_t *, long);
typedef void (*sq_rows_fn)(const gf2m_field *, const uint64_t *, uint64_t *, long);

/* GF2M_NO_PCLMUL compiles the portable rows only (the sanitizer test's
 * second build, so that CI runs them on PCLMULQDQ hardware). */
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) \
    && !defined(GF2M_NO_PCLMUL)
#define GF2M_HAVE_PCLMUL_BUILD 1

/* The (word count, fold word offset n >> 6) shapes with register-resident
 * rows: B-163 and K-163 (3, 1), K-233 (4, 0), K-283 (5, 0), K-409 (7, 2),
 * K-571 (9, 1), and the 3-word fields with n < 64 (3, 0). */
#define GF2M_FIXED_SHAPES(X) X(3, 0) X(3, 1) X(4, 0) X(5, 0) X(7, 2) X(9, 1)

#define GF2M_DECLARE_FIXED_ROWS(NW, NWN)                                      \
    __attribute__((visibility("hidden"))) void mul_rows_##NW##_##NWN(        \
        const gf2m_field *, const uint64_t *, const uint64_t *, uint64_t *,  \
        long);                                                                \
    __attribute__((visibility("hidden"))) void sq_rows_##NW##_##NWN(         \
        const gf2m_field *, const uint64_t *, uint64_t *, long);
GF2M_FIXED_SHAPES(GF2M_DECLARE_FIXED_ROWS)
#endif

#endif
