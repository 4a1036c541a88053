/* A CPU sampler to LD_PRELOAD into a process: every millisecond of process
 * CPU time, SIGPROF records the interrupted program counter and the return
 * addresses on its frame-pointer chain; at exit, the samples and the
 * process's memory map go to "$SAMPLER_OUT.<pid>". scripts/profile.sh
 * builds it, runs the end-to-end harness under it and symbolizes the
 * result. Stack reads go through process_vm_readv, so a frame pointer that
 * is really a general register ends the walk instead of faulting. */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <ucontext.h>
#include <unistd.h>

#define DEPTH 48
#define SLOTS (1 << 22) /* 32 MiB: ~85k samples at full depth */

static unsigned long buf[SLOTS];
static unsigned long used;

static int read_word(unsigned long addr, unsigned long *out) {
    struct iovec local = {out, sizeof *out}, remote = {(void *)addr, sizeof *out};
    return process_vm_readv(getpid(), &local, 1, &remote, 1, 0) == sizeof *out;
}

static void on_prof(int sig, siginfo_t *si, void *uc_) {
    (void)sig, (void)si;
    ucontext_t *uc = uc_;
    unsigned long at = __atomic_fetch_add(&used, DEPTH + 1, __ATOMIC_RELAXED);
    if (at + DEPTH + 1 > SLOTS) return;
    unsigned long *s = &buf[at], n = 0, fp = uc->uc_mcontext.gregs[REG_RBP], next, ret;
    s[1 + n++] = uc->uc_mcontext.gregs[REG_RIP];
    while (n < DEPTH && fp % 8 == 0 && read_word(fp, &next) && read_word(fp + 8, &ret) && ret) {
        s[1 + n++] = ret;
        if (next <= fp) break; /* the chain only climbs the stack */
        fp = next;
    }
    s[0] = n;
}

__attribute__((constructor)) static void start(void) {
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *base = getenv("SAMPLER_OUT");
    char path[4096], line[4096];
    snprintf(path, sizeof path, "%s.%d", base ? base : "sampler", (int)getpid());
    FILE *out = fopen(path, "w"), *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps) return;
    unsigned long end = used < SLOTS ? used : SLOTS;
    for (unsigned long at = 0; at + DEPTH + 1 <= end; at += DEPTH + 1) {
        fputs("S", out);
        for (unsigned long i = 0; i < buf[at]; i++) fprintf(out, " %lx", buf[at + 1 + i]);
        fputs("\n", out);
    }
    while (fgets(line, sizeof line, maps)) fprintf(out, "M %s", line);
    fclose(maps);
    fclose(out);
}
