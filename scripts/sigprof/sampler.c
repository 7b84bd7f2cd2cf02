/* sigprof sampler — an LD_PRELOAD CPU-time sampling profiler.
 *
 * Preloaded into any dynamically linked program, it arms ITIMER_PROF at
 * 1 kHz of process CPU time, stores the `backtrace()` of every tick in a
 * buffer mapped at start-up, and at exit writes the program's path, the
 * executable (`r-xp`) mappings of /proc/self/maps and one line of return
 * addresses per sample.
 * `symbolize.py` turns that file into tables. Nothing here allocates or
 * takes a lock after start-up, so the profiled program's own counters
 * (allocations, simulated work) are those of an unprofiled run. Only
 * the process it is preloaded into is profiled: it takes LD_PRELOAD out
 * of the environment at start-up, so a child the program spawns cannot
 * overwrite the file, and a wrapper (`timeout`) profiles only itself.
 *
 *   gcc -O2 -shared -fPIC -o sampler.so sampler.c
 *   LD_PRELOAD=$PWD/sampler.so SIGPROF_OUT=queue.prof  <program> <args>
 */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

enum {
    MAX_SAMPLES = 1 << 17, /* 131 s of CPU at 1 kHz */
    MAX_DEPTH = 96,
    INTERVAL_US = 1000,
};

struct sample {
    void *pc; /* where the tick interrupted the program */
    int depth;
    void *frames[MAX_DEPTH];
};

static struct sample *samples;
static volatile int taken;   /* slots handed out (may exceed MAX_SAMPLES) */
static volatile int dropped; /* ticks that found the buffer full */

static void on_tick(int sig, siginfo_t *info, void *context) {
    (void)sig;
    (void)info;
    int slot = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (slot >= MAX_SAMPLES) {
        __atomic_fetch_add(&dropped, 1, __ATOMIC_RELAXED);
        return;
    }
    struct sample *s = &samples[slot];
    ucontext_t *uc = context;
#if defined(__x86_64__)
    s->pc = (void *)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
    s->pc = (void *)uc->uc_mcontext.pc;
#else
    s->pc = 0;
#endif
    s->depth = backtrace(s->frames, MAX_DEPTH);
}

static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    signal(SIGPROF, SIG_IGN);

    const char *path = getenv("SIGPROF_OUT");
    char fallback[64];
    if (!path) {
        snprintf(fallback, sizeof fallback, "sigprof.%d.prof", (int)getpid());
        path = fallback;
    }
    FILE *out = fopen(path, "w");
    if (!out) {
        perror("sigprof: cannot write profile");
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
    int n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    fprintf(out, "I interval_us=%d samples=%d dropped=%d\n", INTERVAL_US, n, dropped);
    for (int i = 0; i < n; i++) {
        const struct sample *s = &samples[i];
        fprintf(out, "S %p", s->pc);
        for (int f = 0; f < s->depth; f++) {
            fprintf(out, " %p", s->frames[f]);
        }
        fputc('\n', out);
    }
    fclose(out);
    fprintf(stderr, "sigprof: %d samples (%d dropped) -> %s\n", n, dropped, path);
}

__attribute__((constructor)) static void start(void) {
    unsetenv("LD_PRELOAD");
    samples = mmap(NULL, sizeof(struct sample) * MAX_SAMPLES, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (samples == MAP_FAILED) {
        perror("sigprof: cannot map the sample buffer");
        return;
    }
    /* The first backtrace() loads the unwinder (dlopen, malloc): do it
     * here, not inside the first signal. */
    void *warm[4];
    backtrace(warm, 4);

    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_tick;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    atexit(dump);

    struct itimerval tick = {{0, INTERVAL_US}, {0, INTERVAL_US}};
    setitimer(ITIMER_PROF, &tick, NULL);
}
