package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSnapshot is the process-wide resource state at one instant. One
// process hosts every peer and the load generator, so deltas between two
// snapshots cover all of them.
type procSnapshot struct {
	user, sys    time.Duration
	mallocs      uint64
	allocBytes   uint64
	gcCPU        float64 // seconds
	readSyscalls uint64
	writeSyscall uint64
	stolen, busy uint64 // machine-wide jiffies: stolen by the hypervisor, and all non-idle
}

// minus is the change from an earlier snapshot o to s.
func (s procSnapshot) minus(o procSnapshot) procSnapshot {
	return procSnapshot{
		user: s.user - o.user, sys: s.sys - o.sys,
		mallocs: s.mallocs - o.mallocs, allocBytes: s.allocBytes - o.allocBytes,
		gcCPU:        s.gcCPU - o.gcCPU,
		readSyscalls: s.readSyscalls - o.readSyscalls, writeSyscall: s.writeSyscall - o.writeSyscall,
		stolen: s.stolen - o.stolen, busy: s.busy - o.busy,
	}
}

// plus adds two changes.
func (s procSnapshot) plus(o procSnapshot) procSnapshot {
	return procSnapshot{
		user: s.user + o.user, sys: s.sys + o.sys,
		mallocs: s.mallocs + o.mallocs, allocBytes: s.allocBytes + o.allocBytes,
		gcCPU:        s.gcCPU + o.gcCPU,
		readSyscalls: s.readSyscalls + o.readSyscalls, writeSyscall: s.writeSyscall + o.writeSyscall,
		stolen: s.stolen + o.stolen, busy: s.busy + o.busy,
	}
}

// cpu is the user plus system time.
func (s procSnapshot) cpu() time.Duration { return s.user + s.sys }

func takeProcSnapshot() procSnapshot {
	var s procSnapshot
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.user = time.Duration(ru.Utime.Nano())
		s.sys = time.Duration(ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs, s.allocBytes = ms.Mallocs, ms.TotalAlloc
	sample := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = sample[0].Value.Float64()
	}
	s.readSyscalls = procField("/proc/self/io", "syscr:")
	s.writeSyscall = procField("/proc/self/io", "syscw:")
	s.stolen, s.busy = cpuJiffies()
	return s
}

// cpuJiffies reads the machine-wide "cpu" line of /proc/stat: user nice
// system idle iowait irq softirq steal. A window with many stolen jiffies
// was disturbed by a neighbour, whatever the program did.
func cpuJiffies() (stolen, busy uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		if i == 8 {
			stolen = v
		}
		if i != 4 && i != 5 {
			busy += v
		}
	}
	return stolen, busy
}

// procField returns the first number after key in a /proc file of
// "key value" lines, or 0 when the file or key is missing.
func procField(path, key string) uint64 {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				v, _ := strconv.ParseUint(f[0], 10, 64)
				return v
			}
		}
	}
	return 0
}

// peakRSSMiB is the process's high-water resident set (VmHWM).
func peakRSSMiB() float64 {
	return float64(procField("/proc/self/status", "VmHWM:")) / 1024
}

// loadAvg1 is the 1-minute load average, or -1 when unreadable.
func loadAvg1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return -1
	}
	return v
}

// fsType names the filesystem holding dir ("tmpfs", "ext4", ...) from the
// longest matching mount point in /proc/mounts.
func fsType(dir string) string {
	b, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (dir == mp || strings.HasPrefix(dir, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}
