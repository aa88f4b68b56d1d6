package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// TestFig5RoundTrip runs the Figure 5 experiment in process: import,
// scheduled indexing, the paper's search, and the GraphML and SVG
// drill-in, all over real HTTP against the /api/v1 routes.
func TestFig5RoundTrip(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	runErr := expFig5(config{})
	os.Stdout = stdout
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatalf("fig5: %v\n%s", runErr, out)
	}
	for _, want := range []string{
		`top "clinic records" score 0.778`, // the paper's Figure 4 score
		"bytes GraphML",
		"bytes SVG",
		"architecture round trip complete",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}
