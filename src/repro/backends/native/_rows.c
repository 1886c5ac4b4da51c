/* Register-resident type II fold rows, one pair (product, square) per
 * shape of GF2M_FIXED_SHAPES.
 *
 * These are reduce_type2 of _kernel.c with the word count nw = NW and the
 * fold's word offset n >> 6 = NWN fixed at compile time: every loop below
 * unrolls, so the product and both folds live in registers, and only the
 * bit shifts hb = m % 64 (never 0 here, so hw = NW - 1) and nb = n % 64
 * are run-time values.  Each shape covers every type II modulus of its
 * width whose n has that word offset, irreducible or not.
 *
 * This file is its own translation unit: its unrolled bodies are most of
 * the kernel's compile time, so the build compiles it in parallel with
 * the cffi wrapper and _kernel.c, then links the two objects once.
 */

#include "_kernel.h"

#if defined(GF2M_HAVE_PCLMUL_BUILD)
#include <wmmintrin.h>
#include <smmintrin.h>

#define FOLD_MAX_WORDS 9
#define SHR_64_MINUS(x, s) (((x) >> 1) >> (63 - (s))) /* x >> (64 - s), 0 at s = 0 */

/* GCC's loop vectorizer (on at -O2 since GCC 12) paired neighbouring words
 * of the 4-word fold's loops in SSE registers through the stack (two 64-bit
 * stores, one 128-bit load: a store-forwarding stall per pair), which made
 * a 4-word square cost 35-40 ns, against 15 ns without it. */
#if defined(__clang__)
#define GF2M_UNROLLED
#else
#define GF2M_UNROLLED __attribute__((optimize("unroll-loops", "no-tree-loop-vectorize")))
#endif

static inline __attribute__((always_inline)) void
fold_type2_fixed(const uint64_t *p, uint64_t *out, int hb, int nb,
                 const int NW, const int NWN)
{
    uint64_t h[FOLD_MAX_WORDS], t[FOLD_MAX_WORDS], r[2 * FOLD_MAX_WORDS];
    uint64_t g[FOLD_MAX_WORDS], u[FOLD_MAX_WORDS + 1];
    int k;

    /* first fold: H = p >> m (m - 1 bits), T = H + H<<1 + H<<2 (m + 1 bits),
     * r = (p mod y^m) + H + (T << n), which has at most n + 1 bits >= m */
    for (k = 0; k < NW; k++)
        h[k] = (p[NW - 1 + k] >> hb) | (p[NW + k] << (64 - hb));
    for (k = 0; k < NW; k++)
        t[k] = h[k] ^ (h[k] << 1) ^ (h[k] << 2)
            ^ (k ? (h[k - 1] >> 63) ^ (h[k - 1] >> 62) : 0);
    for (k = 0; k <= NW + NWN; k++) {
        int j = k - NWN; /* word j of T << nb lands in word k */
        uint64_t v = 0;
        if (k < NW)
            v = (k == NW - 1 ? p[k] & ((1ULL << hb) - 1) : p[k]) ^ h[k];
        if (j >= 0 && j < NW)
            v ^= t[j] << nb;
        if (j >= 1 && j <= NW)
            v ^= SHR_64_MINUS(t[j - 1], nb);
        r[k] = v;
    }
    /* second fold: G = r >> m (n + 1 bits), U = G + G<<1 + G<<2; G + (U << n)
     * stays below y^m because 2n + 2 < m */
    for (k = 0; k <= NWN; k++)
        g[k] = (r[NW - 1 + k] >> hb) | (r[NW + k] << (64 - hb));
    for (k = 0; k <= NWN + 1; k++) {
        uint64_t gk = k <= NWN ? g[k] : 0;
        u[k] = gk ^ (gk << 1) ^ (gk << 2)
            ^ (k ? (g[k - 1] >> 63) ^ (g[k - 1] >> 62) : 0);
    }
    for (k = 0; k < NW; k++) {
        int j = k - NWN;
        uint64_t v = k == NW - 1 ? r[k] & ((1ULL << hb) - 1) : r[k];
        if (k <= NWN)
            v ^= g[k];
        if (j >= 0 && j <= NWN + 1)
            v ^= u[j] << nb;
        if (j >= 1 && j <= NWN + 2)
            v ^= SHR_64_MINUS(u[j - 1], nb);
        out[k] = v;
    }
}

__attribute__((target("pclmul,sse4.1"), always_inline)) static inline void
mul_rows_fixed(const gf2m_field *f, const uint64_t *x, const uint64_t *y,
               uint64_t *dst, long count, const int NW, const int NWN)
{
    int hb = f->m & 63, nb = f->fold_n & 63;
    uint64_t p[2 * FOLD_MAX_WORDS];
    __m128i c[2 * FOLD_MAX_WORDS - 1];
    int i, j;
    long e;
    for (e = 0; e < count; e++) {
        const uint64_t *a = x + e * NW, *b = y + e * NW;
        for (i = 0; i < 2 * NW - 1; i++)
            c[i] = _mm_setzero_si128();
        for (i = 0; i < NW; i++) {
            __m128i va = _mm_cvtsi64_si128((long long)a[i]);
            for (j = 0; j < NW; j++)
                c[i + j] = _mm_xor_si128(c[i + j], _mm_clmulepi64_si128(
                    va, _mm_cvtsi64_si128((long long)b[j]), 0x00));
        }
        p[0] = (uint64_t)_mm_cvtsi128_si64(c[0]);
        for (i = 1; i < 2 * NW - 1; i++)
            p[i] = (uint64_t)_mm_extract_epi64(c[i - 1], 1)
                ^ (uint64_t)_mm_cvtsi128_si64(c[i]);
        p[2 * NW - 1] = (uint64_t)_mm_extract_epi64(c[2 * NW - 2], 1);
        fold_type2_fixed(p, dst + e * NW, hb, nb, NW, NWN);
    }
}

__attribute__((target("pclmul,sse4.1"), always_inline)) static inline void
sq_rows_fixed(const gf2m_field *f, const uint64_t *x, uint64_t *dst,
              long count, const int NW, const int NWN)
{
    int hb = f->m & 63, nb = f->fold_n & 63;
    uint64_t p[2 * FOLD_MAX_WORDS];
    int i;
    long e;
    for (e = 0; e < count; e++) {
        const uint64_t *a = x + e * NW;
        for (i = 0; i < NW; i++) {
            __m128i va = _mm_cvtsi64_si128((long long)a[i]);
            __m128i sq = _mm_clmulepi64_si128(va, va, 0x00);
            p[2 * i] = (uint64_t)_mm_cvtsi128_si64(sq);
            p[2 * i + 1] = (uint64_t)_mm_extract_epi64(sq, 1);
        }
        fold_type2_fixed(p, dst + e * NW, hb, nb, NW, NWN);
    }
}

#define GF2M_DEFINE_FIXED_ROWS(NW, NWN)                                       \
    __attribute__((target("pclmul,sse4.1"))) GF2M_UNROLLED void             \
    mul_rows_##NW##_##NWN(const gf2m_field *f, const uint64_t *x,             \
                          const uint64_t *y, uint64_t *dst, long count)       \
    {                                                                         \
        mul_rows_fixed(f, x, y, dst, count, NW, NWN);                         \
    }                                                                         \
    __attribute__((target("pclmul,sse4.1"))) GF2M_UNROLLED void             \
    sq_rows_##NW##_##NWN(const gf2m_field *f, const uint64_t *x,              \
                         uint64_t *dst, long count)                           \
    {                                                                         \
        sq_rows_fixed(f, x, dst, count, NW, NWN);                             \
    }

GF2M_FIXED_SHAPES(GF2M_DEFINE_FIXED_ROWS)
#else
/* The portable build has no register-resident rows; a declaration keeps
 * this translation unit non-empty. */
typedef int gf2m_no_fixed_rows;
#endif
