package repro_test

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchModuleVets compiles and vets the benchmark against this
// checkout. bench/ is a nested module (its only requirement is
// `replace repro => ../`), so `go test ./...` at the root never builds
// it, and a change to a package it imports — core.Config,
// recovery.Result, wal, metrics — could break it unseen.
func TestBenchModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a second module")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go binary on PATH")
	}
	cmd := exec.Command(goBin, "vet", ".")
	cmd.Dir = "bench"
	// GOPROXY=off and GOTOOLCHAIN=local: nothing here may need the network.
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GOWORK=off",
		"GOPROXY=off", "GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet in ./bench: %v\n%s", err, out)
	}
}
