package main

import (
	"os/exec"
	"syscall"
)

// dieWithParent has the kernel kill the server if the benchmark dies
// first, so a benchmark killed on a timeout leaves no server behind.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
