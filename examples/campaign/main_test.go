package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// The example's output and the three CSV files it writes, captured while
// it still characterized on the sequential Framework, pin its move to
// the campaign engine and keep it from rotting.
func TestMainMatchesGolden(t *testing.T) {
	golden, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	})
	stdout := runMain(t)
	for _, name := range []string{"stdout.txt", "results-TTT.csv", "results-TFF.csv", "results-TSS.csv"} {
		got := stdout
		if name != "stdout.txt" {
			if got, err = os.ReadFile(filepath.Join(dir, name)); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(filepath.Join(golden, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from the golden", name)
		}
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
