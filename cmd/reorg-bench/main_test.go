package main

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// TestCommandLines pins what each subcommand's flag set accepts: its
// own flags with sane values, and nothing else. Rejected means exit 2
// with the reason and the usage on stderr, before any work is done.
func TestCommandLines(t *testing.T) {
	parsers := map[string]func([]string, io.Writer) error{
		"exp":   func(a []string, w io.Writer) error { _, err := parseExp(a, w); return err },
		"check": func(a []string, w io.Writer) error { _, err := parseCheck(a, w); return err },
		"sweep": func(a []string, w io.Writer) error { _, err := parseSweep(a, w); return err },
	}
	cases := []struct {
		cmd  string
		args string
		ok   bool
	}{
		{"exp", "", true},
		{"exp", "e5", true},
		{"exp", "E5", true},
		{"exp", "-records 2000 -pagesize 1024 -valuesize 32 -seed -7 e2", true},
		{"exp", "e99", false},
		{"exp", "all", false},
		{"exp", "e1 e2", false},
		{"exp", "e5 -records 2000", false},
		{"exp", "-records 0", false},
		{"exp", "-records -5", false},
		{"exp", "-pagesize 0", false},
		{"exp", "-valuesize -1", false},
		{"exp", "-records many", false},
		{"exp", "-stride 3", false},
		{"exp", "-backend file", false},
		{"exp", "-histories 5", false},

		{"check", "", true},
		{"check", "-seed 1 -histories 0 -crashes 0", true},
		{"check", "-seed 4 -crashhit 17 -daemon -backend file -dir /tmp/x", true},
		{"check", "-histories 1 -clients 3 -ops 20 -noshrink", true},
		{"check", "-histories -1", false},
		{"check", "-crashes -1", false},
		{"check", "-crashhit 0", false},
		{"check", "-clients 0", false},
		{"check", "-ops -2", false},
		{"check", "-backend disk", false},
		{"check", "-records 100", false},
		{"check", "-stride 2", false},
		{"check", "-walseg 4096", false},
		{"check", "extra", false},

		{"sweep", "", true},
		{"sweep", "-stride 17 -maxruns 10", true},
		{"sweep", "-backend file -walseg 4096 -daemon -dir /tmp/x", true},
		{"sweep", "-stride 0", false},
		{"sweep", "-stride -3", false},
		{"sweep", "-maxruns 0", false},
		{"sweep", "-maxruns -1", false},
		{"sweep", "-walseg 0", false},
		{"sweep", "-ckpt 4096 -backend file", true},
		{"sweep", "-ckpt 0", false},
		{"sweep", "-ckpt 4096 -daemon", false},
		{"sweep", "-backend tape", false},
		{"sweep", "-seed 1", false},
		{"sweep", "-records 100", false},
		{"sweep", "-histories 5", false},
		{"sweep", "extra", false},
	}
	for _, c := range cases {
		var stderr bytes.Buffer
		err := parsers[c.cmd](strings.Fields(c.args), &stderr)
		switch {
		case c.ok && err != nil:
			t.Errorf("%s %q: rejected (%v): %s", c.cmd, c.args, err, stderr.String())
		case !c.ok && !errors.Is(err, errUsage):
			t.Errorf("%s %q: got %v, want a usage error", c.cmd, c.args, err)
		case !c.ok && !strings.Contains(stderr.String(), "Usage of reorg-bench "+c.cmd):
			t.Errorf("%s %q: no usage on stderr: %q", c.cmd, c.args, stderr.String())
		}
	}
}

// TestDispatchExitCodes covers the part above the flag sets: which
// subcommand runs, and the exit code a rejected line maps to.
func TestDispatchExitCodes(t *testing.T) {
	cases := []struct {
		args string
		code int
	}{
		{"", 2},
		{"bench", 2},
		{"-exp all", 2},
		{"-check", 2},
		{"-h", 0},
		{"exp -h", 0},
		{"exp e99", 2},
		{"sweep -stride 0", 2},
		{"check -backend nope", 2},
		{"exp -records 300 -pagesize 512 e1", 0},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		if got := run(strings.Fields(c.args), &stdout, &stderr); got != c.code {
			t.Errorf("reorg-bench %s: exit %d, want %d (stderr %q)", c.args, got, c.code, stderr.String())
		}
		if c.code == 2 && (stdout.Len() != 0 || stderr.Len() == 0) {
			t.Errorf("reorg-bench %s: rejected line must print to stderr only (stdout %q, stderr %q)",
				c.args, stdout.String(), stderr.String())
		}
	}
}
