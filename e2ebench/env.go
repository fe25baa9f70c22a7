package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// environment is recorded with every result, so a number can be read
// against the code and machine that produced it.
type environment struct {
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
	GoVersion    string `json:"go_version"`
	NumCPU       int    `json:"num_cpu"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	Workload     string `json:"workload"`
	Seed         int64  `json:"seed"`
	RunSeconds   int    `json:"run_seconds"`
	Traced       bool   `json:"traced"`
	SetupRepeats int    `json:"setup_repeats"`
}

func newEnvironment(workload string, seed int64, seconds int, traced bool, setups int) environment {
	commit := os.Getenv("E2EBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return environment{
		Commit:       commit,
		SourceSHA256: sourceDigest("."),
		GoVersion:    runtime.Version(),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Workload:     workload,
		Seed:         seed,
		RunSeconds:   seconds,
		Traced:       traced,
		SetupRepeats: setups,
	}
}

// sourceDigest hashes every Go source and go.mod file under root (in
// walk order, names included), skipping hidden and build directories.
// It identifies the code when the checkout carries no commit.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// peakRSSMiB is the process's maximum resident set size so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// stealMeter sums, over the intervals between begin and end, the
// machine-wide CPU time counters of /proc/stat: user, nice, system,
// idle, iowait, irq, softirq and steal. Steal is time a virtual CPU
// was ready to run but the hypervisor ran another guest; a run with a
// high share was slowed by its neighbours, not by the program.
type stealMeter struct {
	start, sum [8]int64
	failed     bool
}

func (m *stealMeter) begin() {
	var ok bool
	m.start, ok = cpuTicks()
	m.failed = m.failed || !ok
}

func (m *stealMeter) end() {
	now, ok := cpuTicks()
	if !ok {
		m.failed = true
		return
	}
	for i := range now {
		m.sum[i] += now[i] - m.start[i]
	}
}

// share is steal ÷ all CPU time measured, or -1 when /proc/stat could
// not be read.
func (m *stealMeter) share() float64 {
	var total int64
	for _, v := range m.sum {
		total += v
	}
	if m.failed || total <= 0 {
		return -1
	}
	return float64(m.sum[7]) / float64(total)
}

// cpuTicks reads the first eight fields of the aggregate "cpu" line of
// /proc/stat.
func cpuTicks() ([8]int64, bool) {
	var t [8]int64
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return t, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return t, false
	}
	for i := range t {
		if t[i], err = strconv.ParseInt(f[i+1], 10, 64); err != nil {
			return t, false
		}
	}
	return t, true
}
