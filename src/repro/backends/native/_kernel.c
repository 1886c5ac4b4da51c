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
 * Two carry-less multiply implementations are compiled: a portable 4-bit
 * windowed shift-and-xor version, and (on x86-64 with a toolchain that
 * understands target attributes) a PCLMULQDQ version selected at runtime
 * via __builtin_cpu_supports, so one binary runs everywhere.
 *
 * gf2m_run_program executes a FieldIR instruction stream (mul / xor /
 * linear-map / lane-masked select / square) over a register file of
 * batched elements.  gf2m_run_steps runs a whole scalar-multiplication
 * loop of such programs over one chunk of lanes, building every step's
 * select masks and table-point gathers from data packed once per batch.
 * gf2m_inverse_batch is Montgomery's simultaneous inversion around one
 * Itoh-Tsujii chain.
 */

#include <stdint.h>
#include <string.h>

#define GF2M_MAX_WORDS 16 /* supports m <= 1024 */
/* product scratch: 2*nw words plus slack for the fold's shifted spill */
#define PROD_WORDS (2 * GF2M_MAX_WORDS + 2)

typedef struct {
    int m;
    int nw;
    int fold_n; /* >= 0: reduce by two type II folds with this n */
    int nterms;
    const int32_t *terms; /* generic reduction: degrees t_k of the tail */
} gf2m_field;

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
    const int32_t *digits;  /* tau: one row of count signed digits per add */
    const uint64_t *points; /* (x, y) pairs: comb shared, tau per lane */
} gf2m_step_data;

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

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define GF2M_HAVE_PCLMUL_BUILD 1
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

typedef void (*mul_rows_fn)(const gf2m_field *, const uint64_t *,
                            const uint64_t *, uint64_t *, long);
typedef void (*sq_rows_fn)(const gf2m_field *, const uint64_t *, uint64_t *, long);

static mul_rows_fn mul_rows = mul_rows_portable;
static sq_rows_fn sq_rows = sq_rows_portable;
static int using_clmul = 0;

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
    if (__builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1")) {
        mul_rows = mul_rows_pclmul;
        sq_rows = sq_rows_pclmul;
        using_clmul = 1;
    }
#endif
    tables_ready = 1;
}

int gf2m_has_clmul(void)
{
    ensure_init();
    return using_clmul;
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
    int top = f->m - 1, bit = 0, k = 1, i;

    while ((top >> (bit + 1)) != 0)
        bit++;
    memcpy(out, a, (size_t)f->nw * 8);
    for (bit = bit - 1; bit >= 0; bit--) {
        memcpy(shifted, out, (size_t)f->nw * 8);
        for (i = 0; i < k; i++)
            sq_rows(f, shifted, shifted, 1);
        mul_rows(f, shifted, out, out, 1);
        k <<= 1;
        if ((top >> bit) & 1) {
            sq_rows(f, out, out, 1);
            mul_rows(f, out, a, out, 1);
            k += 1;
        }
    }
    sq_rows(f, out, out, 1);
}

/* Montgomery's trick: prefix products in out, one inversion of the total,
 * then one walk back.  Every value must be nonzero (checked by the caller). */
void gf2m_inverse_batch(const gf2m_field *f, const uint64_t *values,
                        uint64_t *out, long count)
{
    uint64_t running[GF2M_MAX_WORDS], tmp[GF2M_MAX_WORDS];
    int nw = f->nw;
    long e;

    ensure_init();
    if (count <= 0)
        return;
    memcpy(out, values, (size_t)nw * 8);
    for (e = 1; e < count; e++)
        mul_rows(f, out + (e - 1) * nw, values + e * nw, out + e * nw, 1);
    inverse_one(f, out + (count - 1) * nw, running);
    for (e = count - 1; e > 0; e--) {
        mul_rows(f, running, out + (e - 1) * nw, tmp, 1);
        mul_rows(f, running, values + e * nw, running, 1);
        memcpy(out + e * nw, tmp, (size_t)nw * 8);
    }
    memcpy(out, running, (size_t)nw * 8);
}

/* ------------------------------------------------------------------ */
/* FieldIR program runner                                              */
/* ------------------------------------------------------------------ */

/* Instructions are 5 int32 words: [op, dst, x, y, z].
 *   op 1 MUL:    dst = x * y
 *   op 2 XOR:    dst = x ^ y
 *   op 3 LINEAR: dst = table[z] applied to register x   (y unused)
 *   op 4 SELECT: dst = mask[z] ? x : y  (per lane)
 *   op 5 SQUARE: dst = x^2              (dst may be x)
 * Registers are vid-indexed blocks of count*nw words; linear-map tables
 * are ceil(m/8) * 256 rows of nw words each; select masks are packed
 * lane bitmaps of lane_words words per mask. */

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
 *           lane e gathers its own table entry (|digit| - 1) * count + e,
 *           negated (y ^= x) for negative digits.
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
                const uint64_t *point = data->points;
                if (digit && data->route == 1)
                    point += (digit - 1) * 2 * nw;
                else if (digit)
                    point += ((digit < 0 ? -digit : digit) - 1) * count * 2 * nw
                        + e * 2 * nw;
                for (w = 0; w < nw; w++) {
                    uint64_t x = point[w] & live;
                    x2[e * nw + w] = x;
                    y2[e * nw + w] = (point[nw + w] & live) ^ (x & negate);
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
