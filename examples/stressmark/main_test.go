package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// The example's output, captured while it still characterized on the
// sequential Framework, pins its move to the campaign engine and keeps
// it from rotting.
func TestMainMatchesGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "stdout.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := runMain(t); !bytes.Equal(got, want) {
		t.Errorf("output differs from testdata/stdout.txt:\n%s", got)
	}
}

// runMain runs the example and returns what it printed.
func runMain(t *testing.T) []byte {
	t.Helper()
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	defer func() { os.Stdout = stdout }()
	main()
	got, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return got
}
