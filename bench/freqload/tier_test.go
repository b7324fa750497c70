package main

import (
	"fmt"
	"os"
	"testing"
)

func TestVMHWM(t *testing.T) {
	status := "Name:\tfreqd\nVmPeak:\t  812344 kB\nVmHWM:\t   52180 kB\nVmRSS:\t   50012 kB\n"
	if kb, err := vmHWM(status); err != nil || kb != 52180 {
		t.Fatalf("vmHWM = %d, %v; want 52180", kb, err)
	}
	if _, err := vmHWM("Name:\tfreqd\n"); err == nil {
		t.Fatal("a status without VmHWM parsed")
	}
	own, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", os.Getpid()))
	if err != nil {
		t.Skip("no /proc on this system")
	}
	if kb, err := vmHWM(string(own)); err != nil || kb <= 0 {
		t.Fatalf("this process's VmHWM = %d, %v", kb, err)
	}
}
