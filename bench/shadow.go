package main

import (
	"bytes"
	"fmt"
)

// The shadow model is what the database must contain: shadow[i] is 0
// when key i is absent, otherwise 1 + the index of its value in the
// value pool. A client updates only the entries of its own partition,
// and only after the database acknowledged the write, so after a crash
// every acknowledged write must be present with its last acknowledged
// value and nothing else may be visible.

// keyIndex parses "user%08d" back into the key index.
func keyIndex(k []byte) (int, bool) {
	if len(k) != keyWidth || string(k[:4]) != "user" {
		return 0, false
	}
	n := 0
	for _, c := range k[4:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

type scanner interface {
	Scan(lo, hi []byte, fn func(key, val []byte) bool) error
}

// verifyShadow full-scans db and compares it with the model. Any
// difference is an error: a phantom (row the model does not hold), a
// stale or foreign value, a key out of order, or a missing row.
func verifyShadow(db scanner, shadow []uint16, vals [][]byte) error {
	want := 0
	for _, s := range shadow {
		if s != 0 {
			want++
		}
	}
	var (
		got      int
		prev     = -1
		problems []string
	)
	note := func(format string, a ...any) {
		if len(problems) < 5 {
			problems = append(problems, fmt.Sprintf(format, a...))
		}
	}
	err := db.Scan(nil, nil, func(k, v []byte) bool {
		got++
		i, ok := keyIndex(k)
		switch {
		case !ok || i >= len(shadow):
			note("foreign key %q", k)
		case i <= prev:
			note("key %q out of order", k)
		case shadow[i] == 0:
			note("phantom key %q (absent in the model)", k)
		case !bytes.Equal(v, vals[shadow[i]-1]):
			note("key %q holds a value other than its last acknowledged one", k)
		}
		if ok {
			prev = i
		}
		return true
	})
	if err != nil {
		return fmt.Errorf("verify: scan: %w", err)
	}
	if got != want && len(problems) == 0 {
		note("%d rows in the database, %d in the model: acknowledged writes are missing", got, want)
	}
	if len(problems) > 0 {
		return fmt.Errorf("verify: database differs from the shadow model (%d rows, model %d): %v", got, want, problems)
	}
	return nil
}
