package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// value is one measured metric as the PR driver reads it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output: the contract with the PR
// driver, which accepts exactly these four keys.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is the full ledger entry of one run, written under bench/out/ (or
// to -out) and read back by compare. It carries everything needed to judge
// whether two numbers are comparable at all: which code, which toolchain,
// which machine, which seed, how many clients and how many samples stand
// behind each percentile.
type record struct {
	Workload   string           `json:"workload"`
	Trace      bool             `json:"trace"`
	Seed       int64            `json:"seed"`
	Seconds    float64          `json:"seconds"`
	Clients    int              `json:"clients"`
	Commit     string           `json:"git_commit"`
	GoVersion  string           `json:"go_version"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	NumCPU     int              `json:"nproc"`
	CPUModel   string           `json:"cpu_model"`
	Started    string           `json:"started"`
	Correct    bool             `json:"correct"`
	Attempted  int              `json:"attempted"`
	Succeeded  int              `json:"succeeded"`
	Failed     int              `json:"failed"`
	Samples    map[string]int   `json:"samples"`
	Metrics    map[string]value `json:"metrics"`
	// InputDigest fingerprints the generated inputs: two records with the
	// same digest measured the same traces.
	InputDigest string   `json:"input_digest,omitempty"`
	Notes       []string `json:"notes,omitempty"`
	// Claim stays null in a benchmark-defining change: a run of the ledger
	// measures, it does not claim. A later PR's comparison fills it in.
	Claim *string `json:"claim"`
}

func newRecord(workload string, trace bool, seed int64, seconds float64, clients int) *record {
	return &record{
		Workload:   workload,
		Trace:      trace,
		Seed:       seed,
		Seconds:    seconds,
		Clients:    clients,
		Commit:     gitCommit(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Started:    time.Now().UTC().Format(time.RFC3339),
		Samples:    map[string]int{},
		Metrics:    map[string]value{},
	}
}

// gitCommit names the measured code. The PR driver's checkout is not a git
// repository, so "unknown" is an expected answer, not an error.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// procSnap is a point-in-time reading of the process-wide cost counters the
// proc.* layer metrics are differences of.
type procSnap struct {
	cpu        time.Duration // user + system, rusage
	allocBytes uint64
	numGC      uint32
	pauses     [256]uint64
}

func snapProc() procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: ms.TotalAlloc,
		numGC:      ms.NumGC,
		pauses:     ms.PauseNs,
	}
}

// maxPauseSince returns the longest stop-the-world pause between an earlier
// snapshot and this one, in microseconds (0 when no cycle ran).
func (s procSnap) maxPauseSince(before procSnap) float64 {
	var max uint64
	n := s.numGC - before.numGC
	if n > uint32(len(s.pauses)) {
		n = uint32(len(s.pauses))
	}
	for i := uint32(0); i < n; i++ {
		if p := s.pauses[(s.numGC-1-i)%uint32(len(s.pauses))]; p > max {
			max = p
		}
	}
	return float64(max) / 1e3
}

// cpuTimes is the first line of /proc/stat: jiffies the box's processors
// spent in each state since boot.
type cpuTimes struct{ total, steal uint64 }

func readCPUTimes() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var t cpuTimes
	for i, f := range strings.Fields(line) {
		v, err := strconv.ParseUint(f, 10, 64)
		if i == 0 || i > 8 || err != nil { // the label; guest time is already in user time
			continue
		}
		t.total += v
		if i == 8 {
			t.steal = v
		}
	}
	return t
}

// stealSince is the share of processor time the host gave to someone else
// between an earlier reading and this one: how disturbed a pass was. It is
// recorded with every run and never used to rescale a metric.
func (t cpuTimes) stealSince(before cpuTimes) float64 {
	if t.total == before.total {
		return 0
	}
	return float64(t.steal-before.steal) / float64(t.total-before.total)
}
