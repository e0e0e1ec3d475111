//go:build !linux

package main

// pinGenerator is Linux-only (sched_setaffinity); elsewhere thread
// placement is left to the OS and CPU numbers will wander with it.
func pinGenerator() (undo func()) { return func() {} }
