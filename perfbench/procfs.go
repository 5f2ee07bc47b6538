package main

// Readers for the /proc counters the benchmark samples from outside the
// server: process CPU time, peak resident set, and host steal time.

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat and /proc/stat CPU
// times; it is 100 on every Linux ABI Go supports.
const clockTicks = 100

// parseProcStatCPU returns utime+stime, in clock ticks, from the contents
// of /proc/<pid>/stat.  The command name (field 2) may contain spaces and
// parentheses, so fields are counted from the last ')'.
func parseProcStatCPU(data []byte) (int64, error) {
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field")
	}
	f := strings.Fields(string(data[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command", len(f))
	}
	ut, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	st, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return ut + st, nil
}

// parseVmHWM returns the peak resident set in kB from the contents of
// /proc/<pid>/status.
func parseVmHWM(data []byte) (int64, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("proc status: malformed %q", line)
			}
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

// cpuTimes is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuTimes struct {
	total, idle, steal int64 // idle includes iowait
}

// parseHostCPU reads the aggregate cpu line of /proc/stat: user nice
// system idle iowait irq softirq steal [guest guest_nice].  Guest time is
// already counted inside user and nice, so it is not added to the total.
func parseHostCPU(data []byte) (cpuTimes, error) {
	line, _, _ := bytes.Cut(data, []byte{'\n'})
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}, fmt.Errorf("proc stat: malformed cpu line %q", line)
	}
	var c cpuTimes
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			return cpuTimes{}, fmt.Errorf("proc stat cpu field %d: %w", i, err)
		}
		c.total += v
		switch i {
		case 4, 5:
			c.idle += v
		case 8:
			c.steal = v
		}
	}
	return c, nil
}

// stealShare is the share of host CPU time stolen by the hypervisor
// between two samples; 0 when no time elapsed.
func stealShare(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// busyStealShare is the share of the time the vCPUs wanted to run that
// the hypervisor stole: steal / (steal + non-idle time).  An idle vCPU is
// never stolen from, so over partly idle time this is the slowdown of the
// work that ran, which stealShare understates.
func busyStealShare(a, b cpuTimes) float64 {
	busy := (b.total - b.idle) - (a.total - a.idle)
	if busy <= 0 {
		return 0
	}
	return float64(b.steal-a.steal) / float64(busy)
}

func readProcCPU(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(data)
}

func readVmHWM(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(data)
}

func readHostCPU() (cpuTimes, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	return parseHostCPU(data)
}
