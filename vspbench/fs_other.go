//go:build !linux

package main

// filesystem is only identified on Linux.
func filesystem(string) string { return "unknown" }
