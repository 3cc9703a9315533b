package bench

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"

	"marketminer/internal/corr"
)

// Host is the fingerprint every results file carries; compare refuses
// to set results from different hosts side by side.
type Host struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	SIMDTier   string `json:"corr_simd_tier"`
}

// HostFingerprint describes the machine and runtime of this process.
func HostFingerprint() Host {
	return Host{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		SIMDTier:   corr.SIMDTier(),
	}
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

// Revision returns `git rev-parse HEAD` of the working directory and
// whether the tree is dirty; ("unknown", false) outside a repository
// (the driver's checkout is not one).
func Revision() (rev string, dirty bool) {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", false
	}
	rev = strings.TrimSpace(string(out))
	st, err := exec.Command("git", "status", "--porcelain").Output()
	return rev, err == nil && len(strings.TrimSpace(string(st))) > 0
}

// cpuSeconds returns this process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// freshPeakRSS returns the heap's free memory to the operating system
// and asks the kernel to restart VmHWM from what is left, so the next
// peakRSSMB reads the peak of what runs in between. Where the kernel
// refuses the reset, VmHWM simply keeps rising and the smallest reading
// of a run is its first.
func freshPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB returns VmHWM of this process in MB.
func peakRSSMB() (float64, error) {
	blob, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("bench: peak rss: %w", err)
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" { // "VmHWM:  123456 kB"
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("bench: peak rss: parse %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("bench: peak rss: no VmHWM in /proc/self/status")
}
