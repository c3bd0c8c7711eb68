package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// probeSink keeps the spin probe's result live so the loop is not
// optimized away.
var probeSink uint64

// spinProbe times a fixed amount of integer work in milliseconds. The
// same binary always does the same work, so a slower probe means a
// slower or busier host, not a slower program.
func spinProbe() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 30_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	probeSink += x
	return float64(time.Since(start)) / float64(time.Millisecond)
}

// cpuTicks is the aggregate "cpu" line of /proc/stat.
type cpuTicks struct{ busy, steal uint64 }

func readCPUTicks() (cpuTicks, error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTicks{}, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		var t cpuTicks
		for i, f := range fields[1:] {
			v, err := strconv.ParseUint(f, 10, 64)
			if err != nil {
				return cpuTicks{}, fmt.Errorf("/proc/stat: %w", err)
			}
			switch i {
			case 3, 4: // idle, iowait
			case 7:
				t.steal = v
				t.busy += v
			default:
				if i < 8 { // guest time is already counted in user time
					t.busy += v
				}
			}
		}
		return t, nil
	}
	return cpuTicks{}, fmt.Errorf("/proc/stat: no cpu line")
}

// stealSince is the share of busy ticks since base that the hypervisor
// stole.
func (t cpuTicks) stealSince(base cpuTicks) float64 {
	busy := t.busy - base.busy
	if busy == 0 {
		return 0
	}
	return float64(t.steal-base.steal) / float64(busy)
}

// selfCPUSeconds is this process's user plus system CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is a process's peak resident set (VmHWM) in MB; pid 0 means
// this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", path, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM", path)
}

// procCPUSeconds is another process's user plus system CPU time from
// /proc/PID/stat.
func procCPUSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	s := string(data)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short", pid)
	}
	utime, err1 := strconv.ParseUint(fields[11], 10, 64)
	stime, err2 := strconv.ParseUint(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad times", pid)
	}
	const clockTicks = 100 // USER_HZ on Linux
	return float64(utime+stime) / clockTicks, nil
}
