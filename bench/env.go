package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dpsadopt/internal/obs"
)

// header records where a result came from. nproc and GOMAXPROCS are
// read, not assumed: the legacy results/BENCH_*.json files all say 1.
type header struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func newHeader(seed int64) header {
	commit := os.Getenv("BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return header{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		Seed:       seed,
	}
}

// env is one invocation's scratch state. Everything it writes lives
// under dir, which is inside the checkout (bench/out by default) and is
// removed on cleanup.
type env struct {
	seed    int64
	seconds float64
	dir     string
	n       int
}

func newEnv(outDir string, seed int64, seconds float64) (*env, error) {
	dir := filepath.Join(outDir, "tmp", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &env{seed: seed, seconds: seconds, dir: dir}, nil
}

func (e *env) cleanup() { os.RemoveAll(e.dir) }

// mkdir returns a fresh empty directory under the run's scratch space.
func (e *env) mkdir(prefix string) (string, error) {
	e.n++
	d := filepath.Join(e.dir, fmt.Sprintf("%s-%d", prefix, e.n))
	return d, os.MkdirAll(d, 0o755)
}

// clock samples everything a pass's deltas are taken over.
type clock struct {
	t         time.Time
	alloc     uint64
	mallocs   uint64
	gcCPUFrac float64
}

func readClock() clock {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return clock{t: time.Now(), alloc: ms.TotalAlloc, mallocs: ms.Mallocs, gcCPUFrac: ms.GCCPUFraction}
}

func (c clock) allocMBSince(b clock) float64 { return float64(c.alloc-b.alloc) / (1 << 20) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's high-water resident set from /proc.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// obsDelta reads counters and histogram sums of the program's own
// registry as differences between two snapshots.
type obsDelta struct{ a, b obs.Snapshot }

func (d obsDelta) counter(name string) float64 {
	return float64(d.b.Counter(name) - d.a.Counter(name))
}

func (d obsDelta) histSum(name string) float64 {
	return d.b.Histogram(name).Sum - d.a.Histogram(name).Sum
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
