package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestKnownNames(t *testing.T) {
	for _, a := range artifacts {
		if !known(a.name) {
			t.Fatalf("artifact %q not known to itself", a.name)
		}
	}
	if known("nonsense") {
		t.Fatal("unknown artifact reported known")
	}
	if names() == "" {
		t.Fatal("empty artifact list")
	}
}

func TestRunRejectsUnknownArtifact(t *testing.T) {
	if err := run(false, "nonsense", "", 1); err == nil {
		t.Fatal("unknown -only value accepted")
	}
}

func TestRunSingleArtifactToDir(t *testing.T) {
	dir := t.TempDir()
	// decrease is the fastest artifact (pure closed forms + tiny MC).
	if err := run(false, "decrease", dir, 1); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "decrease.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty artifact file")
	}
	// Only the selected artifact is produced.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("expected 1 file, found %d", len(entries))
	}
}

func TestRunMultipleSelection(t *testing.T) {
	dir := t.TempDir()
	if err := run(false, "decrease,growth", dir, 1); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"decrease.txt", "growth.txt"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("missing %s: %v", name, err)
		}
	}
}

// TestArtifactsMatchResults keeps the artifact list and the committed
// outputs in step: every artifact has a results/<name>.txt, and every
// results/*.txt belongs to an artifact.
func TestArtifactsMatchResults(t *testing.T) {
	entries, err := os.ReadDir(filepath.Join("..", "..", "results"))
	if err != nil {
		t.Fatal(err)
	}
	committed := make(map[string]bool, len(entries))
	for _, e := range entries {
		if name, ok := strings.CutSuffix(e.Name(), ".txt"); ok && !e.IsDir() {
			committed[name] = true
		}
	}
	for _, a := range artifacts {
		if !committed[a.name] {
			t.Errorf("artifact %q has no results/%s.txt", a.name, a.name)
		}
		delete(committed, a.name)
	}
	for name := range committed {
		t.Errorf("results/%s.txt belongs to no artifact", name)
	}
}
