//go:build !linux

package main

import "os/exec"

// dieWithParent needs Linux's parent-death signal; elsewhere a killed
// benchmark can leave its server running.
func dieWithParent(*exec.Cmd) {}
