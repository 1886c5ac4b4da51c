/* Word-level GF(2^m) kernel: carry-less multiply + pentanomial reduction.
 *
 * This is the native analogue of engine/bitpack.py: field elements are
 * little-endian arrays of uint64 words (nw = ceil(m/64)), products are
 * formed by 64x64 -> 128 carry-less multiplication and folded back below
 * degree m.
 *
 * Reduction.  The paper's type II pentanomials
 * f = y^m + y^(n+2) + y^(n+1) + y^n + 1 satisfy
 *     y^m = y^n (y^2 + y + 1) + 1   (mod f),
 * so the part H of a product at degrees >= m folds back as
 *     H + ((H + H<<1 + H<<2) << n),
 * which leaves at most n + 1 bits above degree m.  A second fold of those
 * is exact whenever 2n + 2 < m, true for every type II modulus of the
 * catalogue; reduce_type2 does exactly two folds, whatever the data.
 * Moduli the fold does not cover (m a multiple of 64, other shapes) keep
 * the generic reduce_words loop over the modulus tail y^m = sum_k y^{t_k}.
 *
 * Rows.  Every batched product and square runs on one of three kinds of
 * rows, chosen in rows_for from the field's shape and the CPU alone and
 * named by gf2m_rows:
 *   - portable: a 4-bit windowed shift-and-xor carry-less multiply;
 *   - generic fold: PCLMULQDQ (x86-64, selected at run time through
 *     __builtin_cpu_supports, so one binary runs everywhere), with the
 *     reductions above at run-time word counts and offsets;
 *   - register-resident fold: PCLMULQDQ with a type II fold whose word
 *     count nw and word offset n >> 6 are compile-time constants, so
 *     product and folds never leave registers (_rows.c, its own
 *     translation unit).  The shapes of GF2M_FIXED_SHAPES have them: every
 *     type II field of 3 words (129 <= m <= 191) and the NIST degrees'
 *     shapes at 4, 5, 7 and 9 words (K-233, K-283, K-409, K-571).  A
 *     product costs 2-4x less than on the generic rows; every other shape
 *     keeps the generic rows.
 *
 * gf2m_run_program executes a FieldIR instruction stream (mul / xor /
 * linear-map / lane-masked select / square) over a register file of
 * batched elements.  gf2m_run_steps runs a whole scalar-multiplication
 * loop of such programs over one chunk of lanes, building every step's
 * select masks and table-point gathers from data packed once per batch.
 * gf2m_inverse_batch is Montgomery's simultaneous inversion around one
 * Itoh-Tsujii chain; zero lanes map to zero and are reported.
 * gf2m_tau_reduce reduces a whole chunk of scalars modulo tau^m - 1 in
 * Z[tau], and gf2m_tau_recode recodes the residues into the digit rows the
 * tau step loop reads.
 */

#include <stdint.h>
#include <string.h>

#include "_kernel.h"

/* product scratch: 2*nw words plus slack for the fold's shifted spill */
#define PROD_WORDS (2 * GF2M_MAX_WORDS + 2)

typedef struct {
    const int32_t *code;
    int ninstr;
    const uint64_t *tables;
    uint64_t *regs;
    int32_t inputs[6];  /* state registers, then the gathered x2, y2 (or -1) */
    int32_t outputs[4]; /* state registers after the step */
} gf2m_step_program;

typedef struct {
    int route;   /* 0 binary ladder, 1 comb, 2 tau */
    int nstate;  /* state registers carried from step to step */
    const uint64_t *scalars; /* ladder, comb: scalar_words words per lane */
    int scalar_words;
    int teeth;   /* comb: tooth t of column c is scalar bit t*columns + c */
    int columns;
    const int8_t *digits;   /* tau: one row of count signed digits per position */
    const uint64_t *points; /* comb: shared (x, y) pairs; tau: x of u*P per lane */
    const uint64_t *points_y; /* tau: y of u*P per lane */
} gf2m_step_data;

typedef struct {
    int width;         /* window width w, 2..7, so |digit| <= 2^(w-1) fits int8 */
    int mu;            /* tau^2 = mu*tau - 2 */
    int64_t t_w, t_2;  /* tau -> t maps Z[tau]/tau^w onto Z/2^w (and Z/4) */
    int64_t e0, e1, f; /* conj(tau^w) = e0 + e1*tau, f = e0 + mu*e1 */
    int64_t threshold; /* tail hand-over: |r0|, |r1| <= gate and norm <= threshold */
    int64_t gate;
} gf2m_tau_recoding;

/* tau^m - 1 = d0 + d1*tau with norm N and conjugate c0 + c1*tau.  constants
 * holds ten values of `limbs` limbs each (two's complement):
 * g0 g1 (g = floor(c * 2^shift / N)), 2c0 2c1, N, 2N, d0, 2d1, d1, c0. */
typedef struct {
    int limbs;
    int shift;
    const uint32_t *constants;
} gf2m_tau_reduction;

/* ------------------------------------------------------------------ */
/* portable carry-less multiply                                        */
/* ------------------------------------------------------------------ */

static void clmul64_portable(uint64_t a, uint64_t b, uint64_t *lo, uint64_t *hi)
{
    /* 4-bit window over a; b's top three bits are masked off so every
     * table entry fits in 64 bits, then repaired afterwards. */
    uint64_t tab[16];
    uint64_t b_low = b & 0x1FFFFFFFFFFFFFFFULL;
    uint64_t l, h, t;
    int i;

    tab[0] = 0;
    tab[1] = b_low;
    for (i = 2; i < 16; i += 2) {
        tab[i] = tab[i >> 1] << 1;
        tab[i + 1] = tab[i] ^ b_low;
    }

    l = tab[a & 0xF];
    h = 0;
    for (i = 4; i < 64; i += 4) {
        t = tab[(a >> i) & 0xF];
        l ^= t << i;
        h ^= t >> (64 - i);
    }
    for (i = 61; i < 64; i++) {
        if ((b >> i) & 1) {
            l ^= a << i;
            h ^= a >> (64 - i);
        }
    }
    *lo = l;
    *hi = h;
}

/* spread table: byte -> 16 bits with zeros interleaved (clmul(x, x)) */
static uint16_t sq_spread[256];
static int tables_ready = 0;

/* Schoolbook rows: row i adds a[i]*b at word i; word i + nw is first
 * written by row i, so nothing needs zeroing up front. */
static void mul_words_portable(const uint64_t *a, const uint64_t *b,
                               uint64_t *prod, int nw)
{
    uint64_t lo, hi, carry;
    int i, j;
    for (i = 0; i < nw; i++) {
        carry = 0;
        for (j = 0; j < nw; j++) {
            clmul64_portable(a[i], b[j], &lo, &hi);
            if (i == 0)
                prod[j] = lo ^ carry;
            else
                prod[i + j] ^= lo ^ carry;
            carry = hi;
        }
        prod[i + nw] = carry;
    }
}

static void sq_words_portable(const uint64_t *a, uint64_t *prod, int nw)
{
    int i, k;
    for (i = 0; i < nw; i++) {
        uint64_t lo = 0, hi = 0;
        for (k = 0; k < 4; k++) {
            lo |= (uint64_t)sq_spread[(a[i] >> (8 * k)) & 0xFF] << (16 * k);
            hi |= (uint64_t)sq_spread[(a[i] >> (8 * k + 32)) & 0xFF] << (16 * k);
        }
        prod[2 * i] = lo;
        prod[2 * i + 1] = hi;
    }
}

/* ------------------------------------------------------------------ */
/* reduction                                                           */
/* ------------------------------------------------------------------ */

/* Generic: fold bits >= m with y^m = sum_k y^{t_k} until none are left. */
static void reduce_words(uint64_t *prod, uint64_t *out, int m, int nw,
                         const int32_t *terms, int nterms)
{
    uint64_t high[PROD_WORDS];
    int total = 2 * nw;
    int hw = m >> 6;  /* first word holding bits >= m */
    int hb = m & 63;  /* bit offset of m inside that word */
    int k, w, any;

    for (;;) {
        /* high = (bits of prod at positions >= m) >> m */
        any = 0;
        for (k = 0; k + hw < total; k++) {
            uint64_t v = prod[k + hw] >> hb;
            if (hb && k + hw + 1 < total)
                v |= prod[k + hw + 1] << (64 - hb);
            high[k] = v;
            any |= (v != 0);
        }
        if (!any)
            break;
        /* clear those bits ... */
        if (hb) {
            prod[hw] &= (1ULL << hb) - 1;
            w = hw + 1;
        } else {
            w = hw;
        }
        for (; w < total; w++)
            prod[w] = 0;
        /* ... and fold them back shifted by each tail term degree */
        for (w = 0; w < nterms; w++) {
            int t = terms[w];
            int tw = t >> 6;
            int tb = t & 63;
            for (k = 0; k + hw < total; k++) {
                uint64_t v = high[k];
                if (!v || k + tw >= total)
                    continue;
                prod[k + tw] ^= v << tb;
                if (tb && k + tw + 1 < total)
                    prod[k + tw + 1] ^= v >> (64 - tb);
            }
        }
    }
    for (k = 0; k < nw; k++)
        out[k] = prod[k];
}

/* Type II: two folds of y^m = y^n (y^2 + y + 1) + 1 (needs m % 64 != 0,
 * so H + H<<1 + H<<2 of the first fold still fits nw words, and
 * 2n + 2 < m, so the second fold leaves nothing above degree m).  Each
 * fold stores every word above hw instead of clearing and XORing it. */
static void reduce_type2(uint64_t *prod, uint64_t *out, int m, int n, int nw)
{
    uint64_t h[GF2M_MAX_WORDS + 1];
    int hw = m >> 6, hb = m & 63;
    int nwn = n >> 6, nb = n & 63;
    int nh = nw; /* words of the high part: m - 1 bits, then n + 1 bits */
    uint64_t keep = (1ULL << hb) - 1;
    int pass, k;

    for (pass = 0; pass < 2; pass++) {
        uint64_t prev = 0, last = 0;
        for (k = 0; k < nh; k++) /* h = prod >> m */
            h[k] = (prod[hw + k] >> hb) | (prod[hw + k + 1] << (64 - hb));
        prod[hw] &= keep;
        /* prod += h + (t << n), t = h + h<<1 + h<<2, one word at a time:
         * t word j is (h[j] << 0,1,2) plus the carries out of h[j - 1]. */
        for (k = 0; k <= nh + nwn; k++) {
            int j = k - nwn;
            uint64_t hj = (j >= 0 && j < nh) ? h[j] : 0;
            uint64_t t = hj ^ (hj << 1) ^ (hj << 2) ^ (prev >> 63) ^ (prev >> 62);
            uint64_t v = (k < nh ? h[k] : 0) ^ (t << nb);
            if (nb)
                v ^= last >> (64 - nb);
            if (j >= 0)
                prev = hj;
            last = j >= 0 ? t : 0;
            if (k <= hw)
                prod[k] ^= v;
            else
                prod[k] = v;
        }
        nh = nwn + 1;
    }
    for (k = 0; k < nw; k++)
        out[k] = prod[k];
}

static void reduce(const gf2m_field *f, uint64_t *prod, uint64_t *out)
{
    if (f->fold_n >= 0)
        reduce_type2(prod, out, f->m, f->fold_n, f->nw);
    else
        reduce_words(prod, out, f->m, f->nw, f->terms, f->nterms);
}

/* ------------------------------------------------------------------ */
/* batched rows: dst[e] = x[e] * y[e], dst[e] = x[e]^2 (in place is fine) */
/* ------------------------------------------------------------------ */

static void mul_rows_portable(const gf2m_field *f, const uint64_t *x,
                              const uint64_t *y, uint64_t *dst, long count)
{
    uint64_t prod[PROD_WORDS] = {0};
    int nw = f->nw;
    long e;
    for (e = 0; e < count; e++) {
        mul_words_portable(x + e * nw, y + e * nw, prod, nw);
        reduce(f, prod, dst + e * nw);
    }
}

static void sq_rows_portable(const gf2m_field *f, const uint64_t *x,
                             uint64_t *dst, long count)
{
    uint64_t prod[PROD_WORDS] = {0};
    int nw = f->nw;
    long e;
    for (e = 0; e < count; e++) {
        sq_words_portable(x + e * nw, prod, nw);
        reduce(f, prod, dst + e * nw);
    }
}

/* ------------------------------------------------------------------ */
/* PCLMULQDQ variants (runtime-dispatched on x86-64)                   */
/* ------------------------------------------------------------------ */

#if defined(GF2M_HAVE_PCLMUL_BUILD)
#include <wmmintrin.h>
#include <smmintrin.h>

__attribute__((target("pclmul,sse4.1")))
static void mul_rows_pclmul(const gf2m_field *f, const uint64_t *x,
                            const uint64_t *y, uint64_t *dst, long count)
{
    uint64_t prod[PROD_WORDS] = {0};
    int nw = f->nw;
    int i, j;
    long e;
    for (e = 0; e < count; e++) {
        const uint64_t *a = x + e * nw, *b = y + e * nw;
        for (i = 0; i < nw; i++) { /* rows as in mul_words_portable */
            __m128i va = _mm_cvtsi64_si128((long long)a[i]);
            uint64_t carry = 0;
            for (j = 0; j < nw; j++) {
                __m128i vb = _mm_cvtsi64_si128((long long)b[j]);
                __m128i p = _mm_clmulepi64_si128(va, vb, 0x00);
                uint64_t lo = (uint64_t)_mm_cvtsi128_si64(p) ^ carry;
                if (i == 0)
                    prod[j] = lo;
                else
                    prod[i + j] ^= lo;
                carry = (uint64_t)_mm_extract_epi64(p, 1);
            }
            prod[i + nw] = carry;
        }
        reduce(f, prod, dst + e * nw);
    }
}

__attribute__((target("pclmul,sse4.1")))
static void sq_rows_pclmul(const gf2m_field *f, const uint64_t *x,
                           uint64_t *dst, long count)
{
    uint64_t prod[PROD_WORDS] = {0};
    int nw = f->nw;
    int i;
    long e;
    for (e = 0; e < count; e++) {
        const uint64_t *a = x + e * nw;
        for (i = 0; i < nw; i++) {
            __m128i va = _mm_cvtsi64_si128((long long)a[i]);
            __m128i p = _mm_clmulepi64_si128(va, va, 0x00);
            prod[2 * i] = (uint64_t)_mm_cvtsi128_si64(p);
            prod[2 * i + 1] = (uint64_t)_mm_extract_epi64(p, 1);
        }
        reduce(f, prod, dst + e * nw);
    }
}
#endif

typedef struct {
    const char *name;
    mul_rows_fn mul;
    sq_rows_fn sq;
} row_kind;

static const row_kind portable_rows = {"portable clmul", mul_rows_portable,
                                       sq_rows_portable};
#if defined(GF2M_HAVE_PCLMUL_BUILD)
static const row_kind generic_rows = {"PCLMULQDQ generic fold", mul_rows_pclmul,
                                      sq_rows_pclmul};
typedef struct {
    int nw, nwn;
    row_kind rows;
} fixed_shape;

#define GF2M_FIXED_SHAPE_ENTRY(NW, NWN)                                       \
    {NW, NWN, {"PCLMULQDQ register-resident fold", mul_rows_##NW##_##NWN,     \
               sq_rows_##NW##_##NWN}},
static const fixed_shape fixed_shapes[] = {GF2M_FIXED_SHAPES(GF2M_FIXED_SHAPE_ENTRY)};
static int using_clmul = 0;
#endif

static void ensure_init(void)
{
    int b, i;
    uint16_t spread;
    if (tables_ready)
        return;
    for (b = 0; b < 256; b++) {
        spread = 0;
        for (i = 0; i < 8; i++)
            if ((b >> i) & 1)
                spread |= (uint16_t)(1u << (2 * i));
        sq_spread[b] = spread;
    }
#if defined(GF2M_HAVE_PCLMUL_BUILD)
    using_clmul = __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
#endif
    tables_ready = 1;
}

/* The rows a field runs on, chosen from its shape and the CPU alone.  A
 * type II fold (fold_n >= 0) implies m % 64 != 0 and 2n + 2 < m. */
static const row_kind *rows_for(const gf2m_field *f)
{
#if defined(GF2M_HAVE_PCLMUL_BUILD)
    if (using_clmul) {
        size_t i;
        if (f->fold_n >= 0)
            for (i = 0; i < sizeof fixed_shapes / sizeof fixed_shapes[0]; i++)
                if (fixed_shapes[i].nw == f->nw && fixed_shapes[i].nwn == f->fold_n >> 6)
                    return &fixed_shapes[i].rows;
        return &generic_rows;
    }
#endif
    return &portable_rows;
}

static void mul_rows(const gf2m_field *f, const uint64_t *x, const uint64_t *y,
                     uint64_t *dst, long count)
{
    rows_for(f)->mul(f, x, y, dst, count);
}

static void sq_rows(const gf2m_field *f, const uint64_t *x, uint64_t *dst,
                    long count)
{
    rows_for(f)->sq(f, x, dst, count);
}

const char *gf2m_rows(const gf2m_field *f)
{
    ensure_init();
    return rows_for(f)->name;
}

/* ------------------------------------------------------------------ */
/* batch entry points                                                  */
/* ------------------------------------------------------------------ */

void gf2m_mul_batch(const gf2m_field *f, const uint64_t *a, const uint64_t *b,
                    uint64_t *out, long count)
{
    ensure_init();
    mul_rows(f, a, b, out, count);
}

void gf2m_square_batch(const gf2m_field *f, const uint64_t *values,
                       uint64_t *out, long count)
{
    ensure_init();
    sq_rows(f, values, out, count);
}

/* Itoh-Tsujii: a^-1 = (a^(2^(m-1) - 1))^2, walking the bits of m - 1
 * exactly as GF2mField._itoh_tsujii does (out must not alias a). */
static void inverse_one(const gf2m_field *f, const uint64_t *a, uint64_t *out)
{
    uint64_t shifted[GF2M_MAX_WORDS];
    const row_kind *rows = rows_for(f);
    int top = f->m - 1, bit = 0, k = 1, i;

    while ((top >> (bit + 1)) != 0)
        bit++;
    memcpy(out, a, (size_t)f->nw * 8);
    for (bit = bit - 1; bit >= 0; bit--) {
        memcpy(shifted, out, (size_t)f->nw * 8);
        for (i = 0; i < k; i++)
            rows->sq(f, shifted, shifted, 1);
        rows->mul(f, shifted, out, out, 1);
        k <<= 1;
        if ((top >> bit) & 1) {
            rows->sq(f, out, out, 1);
            rows->mul(f, out, a, out, 1);
            k += 1;
        }
    }
    rows->sq(f, out, out, 1);
}

static int is_zero(const uint64_t *a, int nw)
{
    uint64_t any = 0;
    int w;
    for (w = 0; w < nw; w++)
        any |= a[w];
    return any == 0;
}

/* Montgomery's trick: prefix products in out, one inversion of the total,
 * then one walk back.  A zero lane counts as 1 in the products and gets 0
 * back; when zeros is not NULL (lane_words words, zero on entry) it gets
 * bit e set for each zero lane e.  Returns the number of zero lanes.  out
 * must not alias values. */
long gf2m_inverse_batch(const gf2m_field *f, const uint64_t *values,
                        uint64_t *out, long count, uint64_t *zeros)
{
    uint64_t running[GF2M_MAX_WORDS], tmp[GF2M_MAX_WORDS];
    uint64_t one[GF2M_MAX_WORDS] = {1};
    int nw = f->nw;
    long e, nzero = 0;

    ensure_init();
    if (count <= 0)
        return 0;
    for (e = 0; e < count; e++) {
        const uint64_t *v = values + e * nw;
        uint64_t *dst = out + e * nw;
        if (is_zero(v, nw)) {
            memcpy(dst, e ? dst - nw : one, (size_t)nw * 8);
            nzero++;
            if (zeros)
                zeros[e >> 6] |= 1ULL << (e & 63);
        } else if (e == 0) {
            memcpy(dst, v, (size_t)nw * 8);
        } else {
            mul_rows(f, dst - nw, v, dst, 1);
        }
    }
    inverse_one(f, out + (count - 1) * nw, running);
    for (e = count - 1; e > 0; e--) {
        if (is_zero(values + e * nw, nw)) {
            memset(out + e * nw, 0, (size_t)nw * 8);
            continue;
        }
        mul_rows(f, running, out + (e - 1) * nw, tmp, 1);
        mul_rows(f, running, values + e * nw, running, 1);
        memcpy(out + e * nw, tmp, (size_t)nw * 8);
    }
    if (is_zero(values, nw))
        memset(out, 0, (size_t)nw * 8);
    else
        memcpy(out, running, (size_t)nw * 8);
    return nzero;
}

/* ------------------------------------------------------------------ */
/* FieldIR program runner                                              */
/* ------------------------------------------------------------------ */

/* Instructions are 5 int32 words: [op, dst, x, y, z].
 *   op 1 MUL:    dst = x * y
 *   op 2 XOR:    dst = x ^ y
 *   op 3 LINEAR: dst = table[z] applied to register x   (y unused; dst != x,
 *                because each lane's source is read after its first write)
 *   op 4 SELECT: dst = mask[z] ? x : y  (per lane)
 *   op 5 SQUARE: dst = x^2              (dst may be x, as for MUL and XOR)
 * Registers are blocks of count*nw words, which the lowering reuses once
 * their value is dead; linear-map tables are ceil(m/8) * 256 rows of nw
 * words each; select masks are packed lane bitmaps of lane_words words
 * per mask. */

static void run_program(const gf2m_field *f, const int32_t *code, int ninstr,
                        uint64_t *regs, long count, const uint64_t *tables,
                        const uint64_t *masks, long lane_words)
{
    int nw = f->nw;
    int nbytes = (f->m + 7) >> 3;
    long stride = count * nw;
    long e, k;
    int pc, w, bi;

    for (pc = 0; pc < ninstr; pc++) {
        const int32_t *ins = code + 5 * pc;
        uint64_t *dst = regs + (long)ins[1] * stride;
        const uint64_t *x = regs + (long)ins[2] * stride;
        switch (ins[0]) {
        case 1: /* mul */
            mul_rows(f, x, regs + (long)ins[3] * stride, dst, count);
            break;
        case 2: { /* xor */
            const uint64_t *y = regs + (long)ins[3] * stride;
            for (k = 0; k < stride; k++)
                dst[k] = x[k] ^ y[k];
            break;
        }
        case 3: { /* linear map via per-byte tables */
            const uint64_t *tab = tables + (long)ins[4] * nbytes * 256 * nw;
            for (e = 0; e < count; e++) {
                const uint64_t *src = x + e * nw;
                uint64_t *o = dst + e * nw;
                for (w = 0; w < nw; w++)
                    o[w] = tab[(src[0] & 0xFF) * nw + w];
                for (bi = 1; bi < nbytes; bi++) {
                    unsigned byte =
                        (unsigned)((src[bi >> 3] >> ((bi & 7) * 8)) & 0xFF);
                    const uint64_t *row = tab + ((long)bi * 256 + byte) * nw;
                    for (w = 0; w < nw; w++)
                        o[w] ^= row[w];
                }
            }
            break;
        }
        case 4: { /* lane-masked select */
            const uint64_t *y = regs + (long)ins[3] * stride;
            const uint64_t *mask = masks + (long)ins[4] * lane_words;
            for (e = 0; e < count; e++) {
                uint64_t sel = (uint64_t)0 - ((mask[e >> 6] >> (e & 63)) & 1);
                const uint64_t *xe = x + e * nw;
                const uint64_t *ye = y + e * nw;
                uint64_t *o = dst + e * nw;
                for (w = 0; w < nw; w++)
                    o[w] = (xe[w] & sel) | (ye[w] & ~sel);
            }
            break;
        }
        case 5: /* square */
            sq_rows(f, x, dst, count);
            break;
        default:
            return; /* unreachable: the compiler only emits ops 1-5 */
        }
    }
}

void gf2m_run_program(const gf2m_field *f, const int32_t *code, int ninstr,
                      uint64_t *regs, long count, const uint64_t *tables,
                      const uint64_t *masks, long lane_words)
{
    ensure_init();
    run_program(f, code, ninstr, regs, count, tables, masks, lane_words);
}

/* ------------------------------------------------------------------ */
/* step loop                                                           */
/* ------------------------------------------------------------------ */

static int scalar_bit(const gf2m_step_data *d, long lane, long bit)
{
    if (bit >= (long)d->scalar_words * 64)
        return 0;
    return (int)((d->scalars[lane * d->scalar_words + (bit >> 6)] >> (bit & 63)) & 1);
}

/* The signed table digit of one lane at one add step (0: no add). */
static long step_digit(const gf2m_step_data *d, long lane, int row, long count)
{
    long pattern = 0;
    int t;
    if (d->route == 2)
        return d->digits[(long)row * count + lane];
    for (t = 0; t < d->teeth; t++)
        pattern |= (long)scalar_bit(d, lane, (long)t * d->columns + row) << t;
    return pattern;
}

/* Runs events[2i] (program index) with row events[2i+1] for every event:
 *   ladder: row is the scalar bit driving select mask 0;
 *   comb:   row is the column; mask 0 adds, mask 1 starts, gathered from
 *           the shared table at the column's tooth pattern - 1;
 *   tau:    row is the digit row (-1: no add, the program has no gathers);
 *           lane e gathers element (|digit| - 1) * count + e of the planar
 *           x and y tables, negated (y ^= x) for negative digits.
 * The state enters through state (nstate blocks of count*nw words) and is
 * written back there.  work holds 3 * lane_words scratch words. */
void gf2m_run_steps(const gf2m_field *f, const gf2m_step_program *progs,
                    const int32_t *events, int nevents, long count,
                    const gf2m_step_data *data, uint64_t *state, uint64_t *work)
{
    int nw = f->nw, ns = data->nstate;
    long stride = count * nw, lane_words = (count + 63) >> 6;
    uint64_t *masks = work, *started = work + 2 * lane_words;
    const uint64_t *src[4];
    long e;
    int i, j, w;

    ensure_init();
    for (j = 0; j < ns; j++)
        src[j] = state + j * stride;
    memset(started, 0, (size_t)lane_words * 8);
    for (i = 0; i < nevents; i++) {
        const gf2m_step_program *p = progs + events[2 * i];
        int row = events[2 * i + 1];
        for (j = 0; j < ns; j++) {
            uint64_t *in = p->regs + (long)p->inputs[j] * stride;
            if (in != src[j])
                memcpy(in, src[j], (size_t)stride * 8);
        }
        memset(masks, 0, (size_t)lane_words * 16);
        if (data->route == 0) {
            for (e = 0; e < count; e++)
                masks[e >> 6] |= (uint64_t)scalar_bit(data, e, row) << (e & 63);
        } else if (row >= 0) {
            uint64_t *x2 = p->regs + (long)p->inputs[ns] * stride;
            uint64_t *y2 = p->regs + (long)p->inputs[ns + 1] * stride;
            for (e = 0; e < count; e++) {
                long digit = step_digit(data, e, row, count);
                uint64_t bit = 1ULL << (e & 63);
                uint64_t live = digit ? ~0ULL : 0; /* no add: gather zeros */
                uint64_t negate = digit < 0 ? ~0ULL : 0; /* -(x, y) = (x, x + y) */
                const uint64_t *px = data->points, *py = data->points + nw;
                if (digit && data->route == 1) {
                    px += (digit - 1) * 2 * nw;
                    py = px + nw;
                } else if (digit) {
                    long at = ((digit < 0 ? -digit : digit) - 1) * stride + e * nw;
                    px += at;
                    py = data->points_y + at;
                }
                for (w = 0; w < nw; w++) {
                    uint64_t x = px[w] & live;
                    x2[e * nw + w] = x;
                    y2[e * nw + w] = (py[w] & live) ^ (x & negate);
                }
                if (!digit)
                    continue;
                if (started[e >> 6] & bit) {
                    masks[e >> 6] |= bit;
                } else {
                    masks[lane_words + (e >> 6)] |= bit;
                    started[e >> 6] |= bit;
                }
            }
        }
        run_program(f, p->code, p->ninstr, p->regs, count, p->tables, masks,
                    lane_words);
        for (j = 0; j < ns; j++)
            src[j] = p->regs + (long)p->outputs[j] * stride;
    }
    for (j = 0; j < ns; j++)
        if (src[j] != state + j * stride)
            memcpy(state + j * stride, src[j], (size_t)stride * 8);
}

/* ------------------------------------------------------------------ */
/* tau-adic window recoding                                            */
/* ------------------------------------------------------------------ */

/* Residues are signed two's-complement integers of `limbs` 32-bit limbs,
 * least significant first.  A value "fits" while its top limb keeps 8
 * bits of sign, so subtracting a digit never wraps. */
#define TAU_MAX_LIMBS 32
#define TAU_MAX_CONST ((int64_t)1 << 16) /* |e0|, |e1|, |f| bound: no int64 overflow */

static uint32_t sign_limb(uint32_t top)
{
    return (top >> 31) ? 0xFFFFFFFFu : 0;
}

static int limbs_fit(const uint32_t *r, int limbs)
{
    return (r[limbs - 1] >> 24) == (sign_limb(r[limbs - 1]) >> 24);
}

/* Limb k of r as a signed value: the top limb carries the sign. */
static int64_t limb_at(const uint32_t *r, int limbs, int k)
{
    int64_t value = (int64_t)r[k];
    if (k == limbs - 1 && (r[k] >> 31))
        value -= (int64_t)1 << 32;
    return value;
}

/* floor(v / 2^32), exactly, for any sign of v. */
static int64_t carry_of(int64_t v)
{
    return (v - (int64_t)(uint32_t)v) / ((int64_t)1 << 32);
}

/* r -= u, modulo 2^(32 * limbs), for a small u. */
static void limbs_sub_small(uint32_t *r, int limbs, int64_t u)
{
    int64_t carry = -u;
    int k;
    for (k = 0; k < limbs && carry; k++) {
        int64_t sum = limb_at(r, limbs, k) + carry;
        r[k] = (uint32_t)sum;
        carry = carry_of(sum);
    }
}

/* (r0, r1) <- (r0*a + r1*b, r0*c + r1*d) >> w, in one pass over the limbs.
 * The quotients are exact; returns 0 when either one does not fit. */
static int limbs_divide_window(uint32_t *r0, uint32_t *r1, int limbs, int64_t a,
                               int64_t b, int64_t c, int64_t d, int w)
{
    uint32_t n0[TAU_MAX_LIMBS + 1], n1[TAU_MAX_LIMBS + 1];
    int64_t carry0 = 0, carry1 = 0;
    int k;
    for (k = 0; k < limbs; k++) {
        int64_t x = limb_at(r0, limbs, k), y = limb_at(r1, limbs, k);
        carry0 += x * a + y * b;
        carry1 += x * c + y * d;
        n0[k] = (uint32_t)carry0;
        n1[k] = (uint32_t)carry1;
        carry0 = carry_of(carry0);
        carry1 = carry_of(carry1);
    }
    n0[limbs] = (uint32_t)carry0;
    n1[limbs] = (uint32_t)carry1;
    for (k = 0; k < limbs; k++) {
        r0[k] = (n0[k] >> w) | (n0[k + 1] << (32 - w));
        r1[k] = (n1[k] >> w) | (n1[k + 1] << (32 - w));
    }
    /* the shifted-out top limb must be the sign of what remains */
    return carry_of(carry0 * ((int64_t)1 << (32 - w))) == -(int64_t)(r0[limbs - 1] >> 31)
        && carry_of(carry1 * ((int64_t)1 << (32 - w))) == -(int64_t)(r1[limbs - 1] >> 31)
        && limbs_fit(r0, limbs) && limbs_fit(r1, limbs);
}

/* The value of r when it lies in [-bound, bound] (bound < 2^32); *small = 0 otherwise. */
static int64_t limbs_small(const uint32_t *r, int limbs, int64_t bound, int *small)
{
    int64_t value = limb_at(r, limbs, limbs - 1);
    int k;
    *small = 0;
    for (k = limbs - 2; k >= 0; k--) {
        if (value < -1 || value > 0)
            return 0; /* |r| >= 2^32 */
        value = value * ((int64_t)1 << 32) + (int64_t)r[k];
    }
    *small = value >= -bound && value <= bound;
    return value;
}

/* Multi-limb arithmetic modulo 2^(32 n) on little-endian 32-bit limbs:
 * two's complement values add, subtract and multiply unchanged. */
#define TAU_RED_MAX_LIMBS 40 /* N < 2^1246: m <= 1024 with room */

/* out = a * b mod 2^(32 n); out aliases neither operand. */
static void mp_mul(uint32_t *out, const uint32_t *a, const uint32_t *b, int n)
{
    int i, j;
    memset(out, 0, (size_t)n * 4);
    for (i = 0; i < n; i++) {
        uint64_t carry = 0;
        if (!a[i])
            continue;
        for (j = 0; i + j < n; j++) {
            /* at most (2^32 - 1)^2 + 2 (2^32 - 1) = 2^64 - 1: no overflow */
            uint64_t t = (uint64_t)a[i] * b[j] + out[i + j] + carry;
            out[i + j] = (uint32_t)t;
            carry = t >> 32;
        }
    }
}

/* out = a + sign * b mod 2^(32 n), sign = +1 or -1; out may alias a or b. */
static void mp_add(uint32_t *out, const uint32_t *a, const uint32_t *b, int sign, int n)
{
    int64_t carry = 0;
    int k;
    for (k = 0; k < n; k++) {
        carry += (int64_t)a[k] + sign * (int64_t)b[k];
        out[k] = (uint32_t)carry;
        carry = carry_of(carry);
    }
}

/* out (n_out limbs) = a (n_in limbs) sign-extended, or truncated. */
static void mp_extend(uint32_t *out, int n_out, const uint32_t *a, int n_in)
{
    uint32_t fill = sign_limb(a[n_in - 1]);
    int k;
    for (k = 0; k < n_out; k++)
        out[k] = k < n_in ? a[k] : fill;
}

/* out (n_out limbs) = a >> s (arithmetic, 0 < s < 32 n). */
static void mp_shift_right(uint32_t *out, int n_out, const uint32_t *a, int n, int s)
{
    uint32_t fill = sign_limb(a[n - 1]);
    int word = s >> 5, bit = s & 31, k;
    for (k = 0; k < n_out; k++) {
        uint32_t lo = word + k < n ? a[word + k] : fill;
        uint32_t hi = word + k + 1 < n ? a[word + k + 1] : fill;
        out[k] = bit ? (lo >> bit) | (hi << (32 - bit)) : lo;
    }
}

/* a >= b for non-negative n-limb values. */
static int mp_at_least(const uint32_t *a, const uint32_t *b, int n)
{
    int k;
    for (k = n - 1; k >= 0; k--)
        if (a[k] != b[k])
            return a[k] > b[k];
    return 1;
}

/* Writes r (n limbs) as `limbs` limbs at out, sign-extended or narrowed;
 * 0 when it does not fit them. */
static int mp_store(uint32_t *out, int limbs, const uint32_t *r, int n)
{
    int k;
    mp_extend(out, limbs, r, n);
    for (k = limbs; k < n; k++)
        if (r[k] != sign_limb(out[limbs - 1]))
            return 0;
    return limbs_fit(out, limbs);
}

/* The reduction of scalarmul._TauContext.reduce over count scalars:
 * r = k - q*d with q = (round(k*c0/N), round(k*c1/N)) componentwise.
 * scalars holds count values 0 <= k < N of r->limbs limbs each; residues
 * gets (r0, r1) per lane, `limbs` limbs each, as gf2m_tau_recode reads
 * them.  For 0 <= k < N the estimate (k*g + 2^(shift-1)) >> shift is the
 * rounded quotient or one short (shift >= bits(N) + 2), and the low limbs
 * of 2kc + N - q*2N, which lie in [0, 4N), settle it.  Returns 0, -1 for
 * bad parameters, -2 when a residue does not fit `limbs` limbs. */
long gf2m_tau_reduce(const gf2m_tau_reduction *r, const uint32_t *scalars,
                     long count, uint32_t *residues, int limbs)
{
    int n = r->limbs, i;
    const uint32_t *c = r->constants;
    const uint32_t *norm = c + 4 * n, *twice = c + 5 * n;
    uint32_t wide_k[2 * TAU_RED_MAX_LIMBS], wide_g[2 * TAU_RED_MAX_LIMBS];
    uint32_t product[2 * TAU_RED_MAX_LIMBS];
    uint32_t q[2][TAU_RED_MAX_LIMBS], t[TAU_RED_MAX_LIMBS], u[TAU_RED_MAX_LIMBS];
    uint32_t r0[TAU_RED_MAX_LIMBS], r1[TAU_RED_MAX_LIMBS];
    static const uint32_t one[TAU_RED_MAX_LIMBS] = {1};
    long lane;

    if (n < 1 || n > TAU_RED_MAX_LIMBS || r->shift < 1 || r->shift >= 64 * n
        || limbs < 1 || limbs > TAU_MAX_LIMBS || count < 0)
        return -1;
    for (lane = 0; lane < count; lane++) {
        const uint32_t *k = scalars + lane * n;
        mp_extend(wide_k, 2 * n, k, n);
        for (i = 0; i < 2; i++) {
            /* q = (k*g + 2^(shift-1)) >> shift */
            mp_extend(wide_g, 2 * n, c + i * n, n);
            mp_mul(product, wide_k, wide_g, 2 * n);
            memset(wide_g, 0, (size_t)n * 8);
            wide_g[(r->shift - 1) >> 5] = (uint32_t)1 << ((r->shift - 1) & 31);
            mp_add(product, product, wide_g, 1, 2 * n);
            mp_shift_right(q[i], n, product, 2 * n, r->shift);
            /* t = 2kc + N - q*2N; one short when t >= 2N */
            mp_mul(t, k, c + (2 + i) * n, n);
            mp_add(t, t, norm, 1, n);
            mp_mul(u, q[i], twice, n);
            mp_add(t, t, u, -1, n);
            if (mp_at_least(t, twice, n))
                mp_add(q[i], q[i], one, 1, n);
        }
        /* r0 = k - q0*d0 + q1*2d1, r1 = -(q0*d1 + q1*c0) */
        mp_mul(t, q[0], c + 6 * n, n);
        mp_add(r0, k, t, -1, n);
        mp_mul(t, q[1], c + 7 * n, n);
        mp_add(r0, r0, t, 1, n);
        mp_mul(t, q[0], c + 8 * n, n);
        mp_mul(u, q[1], c + 9 * n, n);
        mp_add(t, t, u, 1, n);
        memset(u, 0, (size_t)n * 4);
        mp_add(r1, u, t, -1, n);
        if (!mp_store(residues + lane * 2 * limbs, limbs, r0, n)
            || !mp_store(residues + lane * 2 * limbs + limbs, limbs, r1, n))
            return -2;
    }
    return 0;
}

/* Records one digit at a position below the row count. */
static void tau_emit(int8_t *digits, uint8_t *occupied, long count, long lane,
                     long position, int64_t u, long *last)
{
    digits[position * count + lane] = (int8_t)u;
    occupied[position] = 1;
    *last = position + 1;
}

/* The window recurrence of scalarmul._tau_sparse_digits over count lanes.
 * residues holds (r0, r1) per lane, `limbs` limbs each.  Digits go to the
 * position-major rows digits[position * count + lane] and occupied[position]
 * is set for every position some lane adds at; both must be zero on entry
 * and hold `positions` rows.  Returns the total span (sum over lanes of the
 * highest digit position + 1), or -1 for bad parameters, -2 when a value
 * outgrows its limbs, -3 when a digit falls past the last row. */
long gf2m_tau_recode(const gf2m_tau_recoding *c, const uint32_t *residues,
                     int limbs, long count, int8_t *digits, uint8_t *occupied,
                     long positions)
{
    uint32_t r0[TAU_MAX_LIMBS], r1[TAU_MAX_LIMBS];
    int w = c->width;
    int64_t power, half, mask;
    const int64_t bound = TAU_MAX_CONST;
    long lane, total = 0;

    if (w < 2 || w > 7)
        return -1;
    power = (int64_t)1 << w;
    half = power >> 1;
    mask = power - 1;
    if (limbs < 1 || limbs > TAU_MAX_LIMBS || count < 0
        || positions < 0 || (c->mu != 1 && c->mu != -1)
        || c->t_w < 0 || c->t_w >= power || c->t_2 < 0 || c->t_2 >= 4
        || c->gate < 0 || c->gate > ((int64_t)1 << 20) || c->threshold < 0
        || c->e0 <= -bound || c->e0 >= bound || c->e1 <= -bound || c->e1 >= bound
        || c->f <= -bound || c->f >= bound)
        return -1;
    for (lane = 0; lane < count; lane++) {
        long position = 0, last = 0;
        int64_t a, b, u;
        int n = limbs; /* the limbs in use: the residue shrinks as it divides */
        memcpy(r0, residues + lane * 2 * limbs, (size_t)limbs * 4);
        memcpy(r1, residues + lane * 2 * limbs + limbs, (size_t)limbs * 4);
        if (!limbs_fit(r0, limbs) || !limbs_fit(r1, limbs))
            return -2;
        for (;;) {
            int small0, small1;
            /* Drop a top limb that is only sign while the rest keeps its 8
             * bits of headroom: a window step grows neither component by
             * more than 2 bits. */
            while (n > 1 && r0[n - 1] == sign_limb(r0[n - 2]) && r1[n - 1] == sign_limb(r1[n - 2])
                   && limbs_fit(r0, n - 1) && limbs_fit(r1, n - 1))
                n--;
            a = limbs_small(r0, n, c->gate, &small0);
            b = limbs_small(r1, n, c->gate, &small1);
            if (small0 && small1 && a * a + c->mu * a * b + 2 * b * b <= c->threshold)
                break;
            if (position >= positions)
                return -3; /* a nonzero residue still owes digits */
            /* u = r0 + r1 * t_w (mod 2^w), balanced into (-half, half] */
            u = (int64_t)(((r0[0] & (uint64_t)mask)
                           + (r1[0] & (uint64_t)mask) * (uint64_t)c->t_w)
                          & (uint64_t)mask);
            if (u > half)
                u -= power;
            if (u) {
                tau_emit(digits, occupied, count, lane, position, u, &last);
                limbs_sub_small(r0, n, u);
            }
            /* (r0, r1) <- (r0*e0 - 2*r1*e1, r0*e1 + r1*f) >> w, exactly */
            if (!limbs_divide_window(r0, r1, n, c->e0, -2 * c->e1, c->e1, c->f, w))
                return -2;
            position += w;
        }
        /* below the threshold: the plain tau-NAF tail on small values */
        while (a || b) {
            int64_t h;
            if (position >= positions)
                return -3;
            if ((uint64_t)a & 1) {
                u = (int64_t)((uint64_t)(a + b * c->t_2) & 3);
                if (u > 2)
                    u -= 4;
                tau_emit(digits, occupied, count, lane, position, u, &last);
                a -= u;
            }
            h = a / 2; /* exact division by tau */
            a = b + c->mu * h;
            b = -h;
            position++;
        }
        total += last;
    }
    return total;
}
