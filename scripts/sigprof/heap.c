/* sigprof heap — an LD_PRELOAD live-heap profiler.
 *
 * Preloaded into any dynamically linked program, it interposes malloc,
 * calloc, realloc, free, posix_memalign and aligned_alloc, forwards each
 * call to glibc's own entry point (`__libc_malloc`, ...), and keeps the
 * bytes still live per allocation stack. Each time the live total passes
 * the previous high-water mark by 1 MiB it copies that table, so at exit
 * it holds the owners of the heap at its peak, to within 1 MiB. It then
 * writes `sampler.c`'s format: the program's path (`E`), the executable
 * mappings (`M`), one header (`I`), and one `S` line per 16 KiB live at
 * the peak, whose leaf is the allocator entry point and whose frames are
 * the callers. `symbolize.py` ranks the owners from that file unchanged,
 * and drops stackbench's yardstick buffers as it drops their ticks.
 *
 *   gcc -O2 -shared -fPIC -o heap.so heap.c
 *   LD_PRELOAD=$PWD/heap.so SIGPROF_OUT=fleet.heap  <program> <args>
 *
 * Every allocation takes a `backtrace()` and a lock: a profiled program
 * runs several times slower, so read bytes, not seconds, from it. Only
 * the process it is preloaded into is profiled: it takes LD_PRELOAD out
 * of the environment at start-up, so a child the program spawns (stackbench
 * runs `git` and `rustc` for its host record) cannot overwrite the file.
 */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <errno.h>
#include <execinfo.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <unistd.h>

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);
extern void __libc_free(void *);
extern void *__libc_memalign(size_t, size_t);

enum {
    MAX_DEPTH = 64,
    MAX_STACKS = 1 << 20,      /* distinct allocation stacks */
    MAX_FRAMES = 1 << 24,      /* frames stored over all stacks */
    UNIT = 16 << 10,           /* bytes per `S` line */
    SNAPSHOT_STEP = 1 << 20,   /* high-water growth between snapshots */
};

/* One distinct allocation stack. `frames[first..first + depth]` are the
 * callers; `entry` is the allocator entry point it came in through. */
struct stack {
    uint64_t hash;
    void *entry;
    uint32_t first;
    uint32_t depth;
};

/* One live block: its address, size and stack. */
struct block {
    uintptr_t ptr; /* 0 = empty slot */
    uint64_t size : 40;
    uint64_t stack : 24;
};

static struct stack *stacks;
static uint32_t nstacks = 1;        /* id 0 = untracked */
static uint32_t *stack_index;       /* open addressing over stack ids */
static void **frames;
static uint32_t nframes;
static int64_t *live;               /* live bytes per stack id */
static int64_t *snap;               /* `live` at the last snapshot */
static uint32_t snap_stacks;

static struct block *blocks;
static size_t block_cap, block_count;

static int64_t live_total, peak_total, snap_mark, snap_total;
static uint64_t untracked;          /* blocks that found a table full */
static int ready;
static volatile int lock_word;
static __thread int busy __attribute__((tls_model("initial-exec")));
static Dl_info self_info;

static void lock(void) {
    while (__atomic_exchange_n(&lock_word, 1, __ATOMIC_ACQUIRE)) {
        while (__atomic_load_n(&lock_word, __ATOMIC_RELAXED)) {
        }
    }
}

static void unlock(void) { __atomic_store_n(&lock_word, 0, __ATOMIC_RELEASE); }

static void *map(size_t bytes) {
    void *p = mmap(NULL, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    return p == MAP_FAILED ? NULL : p;
}

static uint64_t mix(uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return x;
}

/* The id of the stack `entry` <- `callers[0..depth]`, interned. */
static uint32_t intern_stack(void *entry, void **callers, int depth) {
    uint64_t h = mix((uintptr_t)entry);
    for (int i = 0; i < depth; i++) {
        h = mix(h ^ (uintptr_t)callers[i]);
    }
    for (uint64_t slot = h & (MAX_STACKS * 2 - 1);; slot = (slot + 1) & (MAX_STACKS * 2 - 1)) {
        uint32_t id = stack_index[slot];
        if (id == 0) {
            if (nstacks >= MAX_STACKS || nframes + (uint32_t)depth > MAX_FRAMES) {
                return 0;
            }
            id = nstacks++;
            stacks[id] = (struct stack){h, entry, nframes, (uint32_t)depth};
            memcpy(&frames[nframes], callers, sizeof(void *) * (size_t)depth);
            nframes += (uint32_t)depth;
            stack_index[slot] = id;
            return id;
        }
        const struct stack *s = &stacks[id];
        if (s->hash == h && s->entry == entry && s->depth == (uint32_t)depth &&
            memcmp(&frames[s->first], callers, sizeof(void *) * (size_t)depth) == 0) {
            return id;
        }
    }
}

static size_t block_slot(uintptr_t ptr) { return mix(ptr) & (block_cap - 1); }

static void block_put(struct block b) {
    size_t i = block_slot(b.ptr);
    while (blocks[i].ptr) {
        i = (i + 1) & (block_cap - 1);
    }
    blocks[i] = b;
}

/* Double the block table when it is 3/4 full; false if no memory. */
static int block_grow(void) {
    if (block_count * 4 < block_cap * 3) {
        return 1;
    }
    struct block *old = blocks;
    size_t old_cap = block_cap;
    struct block *fresh = map(sizeof(struct block) * old_cap * 2);
    if (!fresh) {
        return 0;
    }
    blocks = fresh;
    block_cap = old_cap * 2;
    for (size_t i = 0; i < old_cap; i++) {
        if (old[i].ptr) {
            block_put(old[i]);
        }
    }
    munmap(old, sizeof(struct block) * old_cap);
    return 1;
}

/* Remove `ptr` (backward-shift deletion keeps probes short). */
static void block_take(uintptr_t ptr) {
    size_t i = block_slot(ptr);
    while (blocks[i].ptr != ptr) {
        if (!blocks[i].ptr) {
            return; /* allocated before start-up or while busy */
        }
        i = (i + 1) & (block_cap - 1);
    }
    live[blocks[i].stack] -= (int64_t)blocks[i].size;
    live_total -= (int64_t)blocks[i].size;
    block_count--;
    for (size_t j = (i + 1) & (block_cap - 1); blocks[j].ptr; j = (j + 1) & (block_cap - 1)) {
        size_t home = block_slot(blocks[j].ptr);
        /* Move j back into the hole at i unless its home lies in (i, j]. */
        if ((j > i && (home <= i || home > j)) || (j < i && home <= i && home > j)) {
            blocks[i] = blocks[j];
            i = j;
        }
    }
    blocks[i].ptr = 0;
}

static void snapshot(void) {
    memcpy(snap, live, sizeof(int64_t) * nstacks);
    snap_stacks = nstacks;
    snap_total = live_total;
    snap_mark = live_total;
}

/* Record a fresh block of `size` bytes at `ptr`, entered through `entry`. */
static void note_alloc(void *entry, void *ptr, size_t size) {
    if (!ptr || !ready || busy) {
        return;
    }
    busy = 1;
    void *raw[MAX_DEPTH + 4];
    int n = backtrace(raw, MAX_DEPTH + 4);
    /* Skip this library's own frames: the stack starts at the caller. */
    int skip = 0;
    Dl_info where;
    while (skip < n && dladdr(raw[skip], &where) && where.dli_fbase == self_info.dli_fbase) {
        skip++;
    }
    int depth = n - skip < MAX_DEPTH ? n - skip : MAX_DEPTH;
    lock();
    uint32_t id = intern_stack(entry, raw + skip, depth);
    untracked += id == 0; /* counted live, but on no `S` line */
    if (block_grow()) {
        block_put((struct block){(uintptr_t)ptr, size, id});
        block_count++;
        live[id] += (int64_t)size;
        live_total += (int64_t)size;
        if (live_total > peak_total) {
            peak_total = live_total;
        }
        if (live_total > snap_mark + SNAPSHOT_STEP) {
            snapshot();
        }
    } else {
        untracked++;
    }
    unlock();
    busy = 0;
}

static void note_free(void *ptr) {
    if (!ptr || !ready) {
        return;
    }
    lock();
    block_take((uintptr_t)ptr);
    unlock();
}

void *malloc(size_t size) {
    void *p = __libc_malloc(size);
    note_alloc((void *)malloc, p, size);
    return p;
}

void *calloc(size_t n, size_t size) {
    void *p = __libc_calloc(n, size);
    note_alloc((void *)calloc, p, n * size);
    return p;
}

/* The old block is forgotten before glibc can hand its address to
 * another thread; a failed realloc leaves it live but untracked. */
void *realloc(void *ptr, size_t size) {
    note_free(ptr);
    void *p = __libc_realloc(ptr, size);
    note_alloc((void *)realloc, p, size);
    return p;
}

void free(void *ptr) {
    note_free(ptr);
    __libc_free(ptr);
}

int posix_memalign(void **out, size_t align, size_t size) {
    if (align < sizeof(void *) || (align & (align - 1))) {
        return EINVAL;
    }
    void *p = __libc_memalign(align, size);
    if (!p) {
        return ENOMEM;
    }
    note_alloc((void *)posix_memalign, p, size);
    *out = p;
    return 0;
}

void *aligned_alloc(size_t align, size_t size) {
    void *p = __libc_memalign(align, size);
    note_alloc((void *)aligned_alloc, p, size);
    return p;
}

static void dump(void) {
    busy = 1;
    lock();
    ready = 0;
    unlock();
    if (live_total > snap_total) {
        snapshot(); /* the peak came within the last step */
    }
    const char *path = getenv("SIGPROF_OUT");
    char fallback[64];
    if (!path) {
        snprintf(fallback, sizeof fallback, "sigprof.%d.heap", (int)getpid());
        path = fallback;
    }
    FILE *out = fopen(path, "w");
    if (!out) {
        perror("sigprof heap: cannot write profile");
        return;
    }
    char line[4096];
    ssize_t len = readlink("/proc/self/exe", line, sizeof line - 1);
    if (len > 0) {
        line[len] = '\0';
        fprintf(out, "E %s\n", line);
    }
    FILE *maps = fopen("/proc/self/maps", "r");
    while (maps && fgets(line, sizeof line, maps)) {
        if (strstr(line, " r-xp ")) {
            fprintf(out, "M %s", line);
        }
    }
    if (maps) {
        fclose(maps);
    }
    /* One line per UNIT bytes, rounded to the nearest unit per stack. */
    long lines = 0;
    for (uint32_t id = 1; id < snap_stacks; id++) {
        lines += (snap[id] + UNIT / 2) / UNIT;
    }
    fprintf(out,
            "I unit_bytes=%d samples=%ld snapshot_bytes=%lld peak_bytes=%lld stacks=%u "
            "untracked=%llu\n",
            UNIT, lines, (long long)snap_total, (long long)peak_total, nstacks - 1,
            (unsigned long long)untracked);
    for (uint32_t id = 1; id < snap_stacks; id++) {
        const struct stack *s = &stacks[id];
        for (int64_t k = (snap[id] + UNIT / 2) / UNIT; k > 0; k--) {
            fprintf(out, "S %p %p", s->entry, s->entry);
            for (uint32_t f = 0; f < s->depth; f++) {
                fprintf(out, " %p", frames[s->first + f]);
            }
            fputc('\n', out);
        }
    }
    fclose(out);
    fprintf(stderr, "sigprof heap: %lld bytes live at the peak snapshot, %ld lines -> %s\n",
            (long long)snap_total, lines, path);
}

__attribute__((constructor)) static void start(void) {
    busy = 1;
    unsetenv("LD_PRELOAD");
    /* The first backtrace() loads the unwinder (dlopen, malloc): do it
     * here, before any block is recorded. */
    void *warm[4];
    backtrace(warm, 4);
    dladdr((void *)start, &self_info);
    stacks = map(sizeof(struct stack) * MAX_STACKS);
    stack_index = map(sizeof(uint32_t) * MAX_STACKS * 2);
    frames = map(sizeof(void *) * MAX_FRAMES);
    live = map(sizeof(int64_t) * MAX_STACKS);
    snap = map(sizeof(int64_t) * MAX_STACKS);
    block_cap = 1 << 20;
    blocks = map(sizeof(struct block) * block_cap);
    if (!stacks || !stack_index || !frames || !live || !snap || !blocks) {
        perror("sigprof heap: cannot map the tables");
        busy = 0;
        return;
    }
    atexit(dump);
    ready = 1;
    busy = 0;
}
