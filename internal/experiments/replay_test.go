package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/paper_replay.golden from this run")

// TestPaperReplayGolden runs the paper replay — every Replay artifact, in
// moodbench's order, on one Env at moodbench's default scale — and compares
// the output byte for byte against the committed golden file. Running the
// artifacts in sequence on one Env, as moodbench does, catches state one
// artifact leaves behind for the next (an index left in the catalog changes
// the plans printed after it). Regenerate with
//
//	go test ./internal/experiments -run TestPaperReplayGolden -update
func TestPaperReplayGolden(t *testing.T) {
	env, err := BuildEnv(0.1)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, a := range Artifacts() {
		if !a.Replay {
			continue
		}
		fmt.Fprintf(&got, "== %s\n", a.Name)
		if err := a.Run(&got, env); err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
	}
	path := filepath.Join("testdata", "paper_replay.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("paper replay differs from %s at line %d:\n got: %q\nwant: %q", path, i+1, g, w)
			}
		}
	}
}
