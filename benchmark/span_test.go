package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestSelfTimeSubtractsWhatChildrenCover(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 60},  // overlaps a: 10..60 covered once
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120}, // runs past the parent: clipped at 100
		{ID: 4, Parent: 1, Name: "a.inner", Start: 15, End: 20},
	}
	want := []time.Duration{100 - 50 - 10, 30 - 5, 30, 30, 5}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestDurationsByNameSumsRepeatedCalls(t *testing.T) {
	got := durationsByName([]span{
		{Name: "jobs.poll", Start: 0, End: 3},
		{Name: "jobs.poll", Start: 10, End: 14},
		{Name: "jobs.submit", Start: 20, End: 21},
	})
	if got["jobs.poll"] != 7 || got["jobs.submit"] != 1 {
		t.Errorf("durations = %v", got)
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("op", -1)
	tr.end(id) // must not panic

	live := &tracer{epoch: time.Now(), op: 7}
	root := live.begin("op", -1)
	child := live.begin("spartan.prove", root)
	live.end(child)
	live.end(root)
	if len(live.spans) != 2 || live.spans[1].Parent != root || live.spans[1].Op != 7 {
		t.Fatalf("spans = %+v", live.spans)
	}
	if live.spans[0].End < live.spans[1].End {
		t.Error("the root span ended before its child")
	}
}

func TestWriteSpansIsOneObjectPerLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	ops := [][]span{{{Op: 1, ID: 0, Parent: -1, Name: "op", End: 5}}, {{Op: 2, ID: 0, Parent: -1, Name: "op", End: 6}}}
	if err := writeSpans(path, ops); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 || !strings.Contains(lines[1], `"op":2`) {
		t.Errorf("spans file:\n%s", data)
	}
}
