/*
 * sigprof: an LD_PRELOAD leaf-IP sampler.
 *
 * Every millisecond of process CPU time (ITIMER_PROF) the kernel sends
 * SIGPROF to the thread that was running; the handler stores the
 * interrupted instruction pointer (REG_RIP) in a fixed buffer. At exit the sampler turns the timer off and writes
 * <SIGPROF_OUT>.<pid>.txt (SIGPROF_OUT defaults to "sigprof"): the loaded
 * objects and their executable segments, found with dl_iterate_phdr, then
 * one `ip` line per sample. tools/sigprof/resolve.py turns that file into
 * a table of symbols.
 *
 *   cc -O2 -shared -fPIC -o libsigprof.so tools/sigprof/sigprof.c
 *   LD_PRELOAD=$PWD/libsigprof.so SIGPROF_OUT=/tmp/prof <command>
 *
 * Leaf IPs only: no stack walk, so a sample names the function the CPU
 * was in, not its callers. The handler is async-signal-safe (one atomic
 * add and one store); a run longer than the buffer holds keeps its first
 * MAX_SAMPLES samples and counts the rest as dropped.
 */
#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#if !defined(__x86_64__)
#error "sigprof reads REG_RIP: x86_64 only"
#endif

#define MAX_SAMPLES (1u << 20)

static uint64_t samples[MAX_SAMPLES];
static unsigned long taken;
#define INTERVAL_US 1000

static void on_sigprof(int sig, siginfo_t *info, void *context) {
    (void)sig;
    (void)info;
    ucontext_t *uc = context;
    unsigned long at = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (at < MAX_SAMPLES) {
        samples[at] = (uint64_t)uc->uc_mcontext.gregs[REG_RIP];
    }
}

static int dump_object(struct dl_phdr_info *info, size_t size, void *data) {
    (void)size;
    FILE *out = data;
    const char *name = info->dlpi_name;
    /* The main program has an empty name; the resolver is told its path. */
    fprintf(out, "obj %lx %s\n", (unsigned long)info->dlpi_addr,
            name[0] ? name : "[main]");
    for (int i = 0; i < info->dlpi_phnum; i++) {
        const ElfW(Phdr) *ph = &info->dlpi_phdr[i];
        if (ph->p_type == PT_LOAD && (ph->p_flags & PF_X)) {
            fprintf(out, "seg %lx %lx\n", (unsigned long)ph->p_vaddr,
                    (unsigned long)ph->p_memsz);
        }
    }
    return 0;
}

__attribute__((constructor)) static void sigprof_start(void) {
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGPROF, &sa, NULL) != 0) {
        perror("sigprof: sigaction");
        return;
    }
    struct itimerval tv = {
        .it_interval = {0, INTERVAL_US},
        .it_value = {0, INTERVAL_US},
    };
    if (setitimer(ITIMER_PROF, &tv, NULL) != 0) {
        perror("sigprof: setitimer");
    }
}

__attribute__((destructor)) static void sigprof_stop(void) {
    struct itimerval off;
    memset(&off, 0, sizeof off);
    setitimer(ITIMER_PROF, &off, NULL);
    signal(SIGPROF, SIG_IGN);

    const char *prefix = getenv("SIGPROF_OUT");
    char path[4096];
    snprintf(path, sizeof path, "%s.%d.txt", prefix ? prefix : "sigprof", (int)getpid());
    FILE *out = fopen(path, "w");
    if (!out) {
        perror("sigprof: fopen");
        return;
    }
    unsigned long n = __atomic_load_n(&taken, __ATOMIC_RELAXED);
    unsigned long kept = n < MAX_SAMPLES ? n : MAX_SAMPLES;
    fprintf(out, "# sigprof interval_us=%d samples=%lu dropped=%lu\n", INTERVAL_US, kept,
            n - kept);
    dl_iterate_phdr(dump_object, out);
    for (unsigned long i = 0; i < kept; i++) {
        fprintf(out, "ip %lx\n", (unsigned long)samples[i]);
    }
    fclose(out);
    fprintf(stderr, "sigprof: %lu samples to %s\n", kept, path);
}
