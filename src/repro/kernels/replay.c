/*
 * Straight-line replay core: the oracle's record loops, transliterated.
 *
 * Each entry point walks a trace record by record exactly as its Python
 * oracle does, so its counters equal the oracle's by construction:
 *
 *   repro_lru       DirectMappedCache / SetAssociativeCache.simulate_batch
 *   repro_fvc       FvcSystem.simulate_batch (default FvcSystemConfig)
 *   repro_classify  classify_misses (target cache + same-size FA LRU)
 *
 * Inputs are columns: ops (0 load, 1 store), byte addresses, values, and
 * dense line ids lid[i] in [0, nlines) with lines[lid] the line address.
 * Lines compare by id; sets and FVC slots index by line address.
 *
 * A main-cache set is an MRU-first list of physical ways (order[]), so
 * moving an entry to the front or popping the LRU one shifts small
 * indices, never line data.  Main memory is a dense word array per line
 * id, zero before the first write-back, like MainMemory.
 *
 * Every entry point returns 0, or -1 when an allocation fails.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Output slots, in CacheStats.__slots__ order. */
enum {
    READ_HITS, READ_MISSES, WRITE_HITS, WRITE_MISSES,
    FILLS, WRITEBACKS, FILL_WORDS, WRITEBACK_WORDS, NSTATS
};

/* An LRU set-associative tag store. */
typedef struct {
    uint32_t ways;
    uint32_t set_mask;
    int64_t *tag;      /* per physical way: line id, -1 when empty */
    uint8_t *dirty;    /* per physical way */
    uint32_t *order;   /* per set: physical ways, most recent first */
    uint32_t *count;   /* per set: valid ways */
} lru_t;

static int lru_init(lru_t *c, uint32_t num_sets, uint32_t ways)
{
    size_t slots = (size_t)num_sets * ways;
    c->ways = ways;
    c->set_mask = num_sets - 1;
    c->tag = malloc(slots * sizeof *c->tag);
    c->dirty = calloc(slots, 1);
    c->order = malloc(slots * sizeof *c->order);
    c->count = calloc(num_sets, sizeof *c->count);
    if (!c->tag || !c->dirty || !c->order || !c->count)
        return -1;
    for (size_t i = 0; i < slots; i++)
        c->tag[i] = -1;
    return 0;
}

static void lru_free(lru_t *c)
{
    free(c->tag);
    free(c->dirty);
    free(c->order);
    free(c->count);
}

/* Look ``id`` up in ``set``; on a hit move it to the front and return
 * its physical way, else return -1. */
static int64_t lru_hit(lru_t *c, uint32_t set, int64_t id)
{
    uint32_t *order = c->order + (size_t)set * c->ways;
    uint32_t n = c->count[set];
    for (uint32_t pos = 0; pos < n; pos++) {
        uint32_t way = order[pos];
        if (c->tag[(size_t)set * c->ways + way] == id) {
            if (pos) {
                memmove(order + 1, order, pos * sizeof *order);
                order[0] = way;
            }
            return way;
        }
    }
    return -1;
}

/* The physical way a miss in ``set`` fills: the LRU way when the set is
 * full (popped, its tag left for the caller to evict), else the next
 * unused one.  The way becomes the MRU entry. */
static uint32_t lru_fill_way(lru_t *c, uint32_t set, int *evicts)
{
    uint32_t *order = c->order + (size_t)set * c->ways;
    uint32_t n = c->count[set];
    uint32_t way;
    if (n >= c->ways) {
        way = order[n - 1];
        n--;
        *evicts = 1;
    } else {
        way = n;
        *evicts = 0;
    }
    memmove(order + 1, order, n * sizeof *order);
    order[0] = way;
    c->count[set] = n + 1;
    return way;
}

/* One access to a tags-only write-back cache; returns 1 on a hit. */
static int lru_access(lru_t *c, uint32_t set, int64_t id, uint8_t op,
                      int64_t words, int64_t *out)
{
    int64_t way = lru_hit(c, set, id);
    size_t base = (size_t)set * c->ways;
    if (way >= 0) {
        if (op) {
            c->dirty[base + way] = 1;
            out[WRITE_HITS]++;
        } else {
            out[READ_HITS]++;
        }
        return 1;
    }
    int evicts;
    uint32_t fill = lru_fill_way(c, set, &evicts);
    if (evicts && c->dirty[base + fill]) {
        out[WRITEBACKS]++;
        out[WRITEBACK_WORDS] += words;
    }
    c->tag[base + fill] = id;
    c->dirty[base + fill] = op ? 1 : 0;
    out[FILLS]++;
    out[FILL_WORDS] += words;
    if (op)
        out[WRITE_MISSES]++;
    else
        out[READ_MISSES]++;
    return 0;
}

int repro_lru(int64_t n, const uint8_t *ops, const uint32_t *addrs,
              const uint32_t *lid, uint32_t line_shift, uint32_t num_sets,
              uint32_t ways, int64_t *out)
{
    lru_t c;
    int64_t words = (int64_t)1 << (line_shift - 2);
    memset(out, 0, NSTATS * sizeof *out);
    if (lru_init(&c, num_sets, ways)) {
        lru_free(&c);
        return -1;
    }
    for (int64_t i = 0; i < n; i++) {
        uint32_t set = (addrs[i] >> line_shift) & c.set_mask;
        lru_access(&c, set, lid[i], ops[i], words, out);
    }
    lru_free(&c);
    return 0;
}

/* --- 3C classification ---------------------------------------------- */

int repro_classify(int64_t n, const uint8_t *ops, const uint32_t *addrs,
                   const uint32_t *lid, int64_t nlines, uint32_t line_shift,
                   uint32_t num_sets, uint32_t ways, int64_t *out)
{
    /* out: accesses, compulsory, capacity, conflict */
    int64_t stats[NSTATS] = {0};
    int64_t capacity_lines = (int64_t)num_sets * ways;
    int64_t words = (int64_t)1 << (line_shift - 2);
    lru_t target;
    /* The fully-associative LRU: a doubly linked list over line ids,
     * head most recent. */
    int64_t *prev = malloc((size_t)(nlines + 1) * sizeof *prev);
    int64_t *next = malloc((size_t)(nlines + 1) * sizeof *next);
    uint8_t *resident = calloc((size_t)nlines + 1, 1);
    uint8_t *seen = calloc((size_t)nlines + 1, 1);
    int rc = lru_init(&target, num_sets, ways);
    int64_t head = -1, tail = -1, held = 0;
    out[0] = out[1] = out[2] = out[3] = 0;
    if (rc || !prev || !next || !resident || !seen) {
        rc = -1;
        goto done;
    }
    for (int64_t i = 0; i < n; i++) {
        int64_t id = lid[i];
        uint32_t set = (addrs[i] >> line_shift) & target.set_mask;
        int target_hit = lru_access(&target, set, id, ops[i], words, stats);
        int ideal_hit = resident[id];
        if (ideal_hit) {
            if (id != head) {
                /* unlink, then push at the head */
                next[prev[id]] = next[id];
                if (id == tail)
                    tail = prev[id];
                else
                    prev[next[id]] = prev[id];
                prev[id] = -1;
                next[id] = head;
                prev[head] = id;
                head = id;
            }
        } else {
            if (held >= capacity_lines) {
                int64_t victim = tail;
                resident[victim] = 0;
                tail = prev[victim];
                if (tail >= 0)
                    next[tail] = -1;
                else
                    head = -1;
                held--;
            }
            resident[id] = 1;
            prev[id] = -1;
            next[id] = head;
            if (head >= 0)
                prev[head] = id;
            else
                tail = id;
            head = id;
            held++;
        }
        int first_touch = !seen[id];
        seen[id] = 1;
        out[0]++;
        if (target_hit)
            continue;
        if (first_touch)
            out[1]++;
        else if (ideal_hit)
            out[3]++;
        else
            out[2]++;
    }
done:
    lru_free(&target);
    free(prev);
    free(next);
    free(resident);
    free(seen);
    return rc;
}

/* --- Main cache + direct-mapped FVC --------------------------------- */

typedef struct {
    lru_t main;
    uint32_t *data;          /* per physical way: the line's words */
    uint32_t *mem;           /* per line id: the memory words */
    int64_t *ftag;           /* per FVC slot: line id, -1 when invalid */
    uint8_t *fcode;          /* per FVC slot: one code per word */
    uint8_t *fdirty;         /* per FVC slot: one dirty bit per word */
    uint32_t *line;          /* scratch: the line being filled */
    uint8_t *codes;          /* scratch: an evicted line's codes */
    const uint32_t *lines;
    const uint32_t *freq;
    uint32_t nfreq;
    uint8_t infrequent;
    uint32_t fvc_mask;
    int64_t words;
    int64_t *out;
} fvc_t;

static uint8_t encode(const fvc_t *s, uint32_t value)
{
    for (uint32_t code = 0; code < s->nfreq; code++)
        if (s->freq[code] == value)
            return (uint8_t)code;
    return s->infrequent;
}

/* Write an evicted FVC entry's dirty words back to memory. */
static void flush_fvc_entry(fvc_t *s, uint32_t slot)
{
    const uint8_t *code = s->fcode + (size_t)slot * s->words;
    const uint8_t *dirty = s->fdirty + (size_t)slot * s->words;
    uint32_t *mem = s->mem + (size_t)s->ftag[slot] * s->words;
    int64_t flushed = 0;
    for (int64_t w = 0; w < s->words; w++) {
        if (dirty[w]) {
            mem[w] = s->freq[code[w]];
            flushed++;
        }
    }
    if (flushed) {
        s->out[WRITEBACKS]++;
        s->out[WRITEBACK_WORDS] += flushed;
    }
}

/* Record the frequent-word identities of an evicted main-cache line. */
static void insert_into_fvc(fvc_t *s, int64_t id, const uint32_t *data)
{
    uint8_t *codes = s->codes;
    int64_t frequent = 0;
    for (int64_t w = 0; w < s->words; w++) {
        codes[w] = encode(s, data[w]);
        frequent += codes[w] != s->infrequent;
    }
    if (!frequent)
        return;
    uint32_t slot = s->lines[id] & s->fvc_mask;
    if (s->ftag[slot] >= 0)
        flush_fvc_entry(s, slot);
    s->ftag[slot] = id;
    memcpy(s->fcode + (size_t)slot * s->words, codes, (size_t)s->words);
    memset(s->fdirty + (size_t)slot * s->words, 0, (size_t)s->words);
}

/* Install ``line`` as the MRU entry of ``set``, displacing the LRU line
 * of a full set into memory (if dirty) and the FVC (frequent words). */
static uint32_t fill_main(fvc_t *s, uint32_t set, int64_t id,
                          const uint32_t *line, uint8_t dirty)
{
    lru_t *c = &s->main;
    int evicts;
    uint32_t way = lru_fill_way(c, set, &evicts);
    size_t slot = (size_t)set * c->ways + way;
    uint32_t *data = s->data + slot * s->words;
    if (evicts) {
        int64_t victim = c->tag[slot];
        if (c->dirty[slot]) {
            memcpy(s->mem + (size_t)victim * s->words, data,
                   (size_t)s->words * sizeof *data);
            s->out[WRITEBACKS]++;
            s->out[WRITEBACK_WORDS] += s->words;
        }
        insert_into_fvc(s, victim, data);
    }
    c->tag[slot] = id;
    c->dirty[slot] = dirty;
    memcpy(data, line, (size_t)s->words * sizeof *data);
    s->out[FILLS]++;
    s->out[FILL_WORDS] += s->words;
    return (uint32_t)slot;
}

int repro_fvc(int64_t n, const uint8_t *ops, const uint32_t *addrs,
              const uint32_t *values, const uint32_t *lid, int64_t nlines,
              const uint32_t *lines, uint32_t line_shift, uint32_t num_sets,
              uint32_t ways, uint32_t fvc_entries, const uint32_t *freq,
              uint32_t nfreq, uint32_t code_bits, int64_t *out)
{
    /* out: the NSTATS counters, then main, FVC read and FVC write hits */
    fvc_t s;
    int64_t main_hits = 0, fvc_read_hits = 0, fvc_write_hits = 0;
    int64_t words = (int64_t)1 << (line_shift - 2);
    uint32_t word_mask = (uint32_t)words - 1;
    size_t wslots = (size_t)num_sets * ways * words;
    int rc;

    memset(out, 0, (NSTATS + 3) * sizeof *out);
    memset(&s, 0, sizeof s);
    rc = lru_init(&s.main, num_sets, ways);
    s.data = calloc(wslots, sizeof *s.data);
    s.mem = calloc((size_t)nlines * words + 1, sizeof *s.mem);
    s.ftag = malloc((size_t)fvc_entries * sizeof *s.ftag);
    s.fcode = calloc((size_t)fvc_entries * words, 1);
    s.fdirty = calloc((size_t)fvc_entries * words, 1);
    s.line = malloc((size_t)words * sizeof *s.line);
    s.codes = malloc((size_t)words);
    if (rc || !s.data || !s.mem || !s.ftag || !s.fcode || !s.fdirty
        || !s.line || !s.codes) {
        rc = -1;
        goto done;
    }
    for (uint32_t e = 0; e < fvc_entries; e++)
        s.ftag[e] = -1;
    s.lines = lines;
    s.freq = freq;
    s.nfreq = nfreq;
    s.infrequent = (uint8_t)((1u << code_bits) - 1);
    s.fvc_mask = fvc_entries - 1;
    s.words = words;
    s.out = out;
    uint32_t *line = s.line;

    for (int64_t i = 0; i < n; i++) {
        uint8_t op = ops[i];
        uint32_t value = values[i];
        uint32_t line_addr = addrs[i] >> line_shift;
        uint32_t w = (addrs[i] >> 2) & word_mask;
        uint32_t set = line_addr & s.main.set_mask;
        int64_t id = lid[i];
        size_t base = (size_t)set * ways;

        /* Main-cache probe. */
        int64_t way = lru_hit(&s.main, set, id);
        if (way >= 0) {
            if (op) {
                s.data[(base + way) * words + w] = value;
                s.main.dirty[base + way] = 1;
                out[WRITE_HITS]++;
            } else {
                out[READ_HITS]++;
            }
            main_hits++;
            continue;
        }

        /* FVC probe. */
        uint32_t slot = line_addr & s.fvc_mask;
        int promote = s.ftag[slot] == id;
        uint8_t *codes = s.fcode + (size_t)slot * words;
        uint8_t *fdirty = s.fdirty + (size_t)slot * words;
        uint8_t dirty = 0;
        if (promote) {
            if (!op) {
                if (codes[w] != s.infrequent) {
                    out[READ_HITS]++;
                    fvc_read_hits++;
                    continue;
                }
            } else {
                uint8_t code = encode(&s, value);
                if (code != s.infrequent) {
                    codes[w] = code;
                    fdirty[w] = 1;
                    out[WRITE_HITS]++;
                    fvc_write_hits++;
                    continue;
                }
            }
        }
        memcpy(line, s.mem + (size_t)id * words, (size_t)words * sizeof *line);
        if (promote) {
            /* Tag match, infrequent word: merge the FVC's frequent words
             * over the memory line, retire the entry, promote the line
             * (dirty when any merged word was written while resident). */
            for (int64_t k = 0; k < words; k++) {
                if (codes[k] != s.infrequent)
                    line[k] = freq[codes[k]];
                dirty |= fdirty[k];
            }
            s.ftag[slot] = -1;
        }

        /* Fill, then apply the missing access to the new MRU line. */
        uint32_t filled = fill_main(&s, set, id, line, dirty);
        if (op) {
            s.data[(size_t)filled * words + w] = value;
            s.main.dirty[filled] = 1;
            out[WRITE_MISSES]++;
        } else {
            out[READ_MISSES]++;
        }
    }
    out[NSTATS] = main_hits;
    out[NSTATS + 1] = fvc_read_hits;
    out[NSTATS + 2] = fvc_write_hits;
    rc = 0;
done:
    lru_free(&s.main);
    free(s.data);
    free(s.mem);
    free(s.ftag);
    free(s.fcode);
    free(s.fdirty);
    free(s.line);
    free(s.codes);
    return rc;
}
