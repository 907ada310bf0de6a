//go:build race

package spmd_test

func init() { raceEnabled = true }
