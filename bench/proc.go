package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// userHz is the kernel's USER_HZ, the unit of the utime/stime fields of
// /proc/<pid>/stat. It is 100 on every Linux ABI Go supports; reading it
// properly needs sysconf(3), i.e. cgo.
const userHz = 100

// parseStatCPU extracts user+system CPU seconds from the contents of
// /proc/<pid>/stat. The command name (field 2) may contain spaces and
// parentheses, so fields are counted from the last ')'.
func parseStatCPU(stat []byte) (float64, error) {
	end := bytes.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	// After ") " comes field 3 (state); utime and stime are fields 14, 15.
	f := strings.Fields(string(stat[end+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after command, want ≥13", len(f))
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return float64(utime+stime) / userHz, nil
}

// parseStatusKB extracts one "Key:   123 kB" line of /proc/<pid>/status.
func parseStatusKB(status []byte, key string) (float64, error) {
	for _, line := range strings.Split(string(status), "\n") {
		rest, ok := strings.CutPrefix(line, key+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed %s line %q", key, line)
		}
		kb, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, fmt.Errorf("proc status %s: %w", key, err)
		}
		return kb, nil
	}
	return 0, fmt.Errorf("proc status: no %s line", key)
}

// cpuSeconds is the cumulative user+system CPU of a live process.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(b)
}

// memMB reads a kB-valued key (VmHWM, VmRSS) of a live process in MB.
func memMB(pid int, key string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseStatusKB(b, key)
	return kb / 1024, err
}

// parseHostCPU extracts, from the contents of /proc/stat, the aggregate
// seconds this machine's CPUs spent running something (busy) and the
// seconds the hypervisor withheld a CPU that had something to run (steal).
func parseHostCPU(stat []byte) (busy, steal float64, err error) {
	line, _, _ := strings.Cut(string(stat), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal [guest guest_nice]
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("proc stat: malformed cpu line %q", line)
	}
	var busyTicks, stealTicks uint64
	for i, s := range f[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("proc stat cpu field %d: %w", i+1, err)
		}
		switch i {
		case 3, 4: // idle, iowait
		case 7:
			stealTicks = v
		default:
			busyTicks += v
		}
	}
	return float64(busyTicks) / userHz, float64(stealTicks) / userHz, nil
}

func hostCPU() (busy, steal float64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	return parseHostCPU(b)
}
