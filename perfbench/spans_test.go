package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTime(t *testing.T) {
	// root [0,100] has children a [10,30] and b [20,50], which overlap,
	// and c [90,120], which outlives it; a has a child d [12,15].
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "d", Start: 12, End: 15},
		{ID: 6, Name: "root", Start: 200, End: 210},
	}
	got := selfTimes(spans)
	want := map[string]spanTotals{
		// 100 - |[10,50] ∪ [90,100]| = 100 - 50, plus the childless 10.
		"root": {Count: 2, Total: 110, SelfNs: 60},
		"a":    {Count: 1, Total: 20, SelfNs: 17},
		"b":    {Count: 1, Total: 30, SelfNs: 30},
		"c":    {Count: 1, Total: 30, SelfNs: 30},
		"d":    {Count: 1, Total: 3, SelfNs: 3},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
	if got := selfNsPer(got, "root"); got != 30 {
		t.Errorf("selfNsPer(root) = %v, want 30", got)
	}
	if got := selfNsPer(got, "missing"); got != 0 {
		t.Errorf("selfNsPer(missing) = %v, want 0", got)
	}
}

func TestSpanRecorder(t *testing.T) {
	var none *spanRecorder
	if id := none.add("x", 0, 0, 1, 2); id != 0 || none.reserve() != 0 {
		t.Error("a nil recorder must record nothing")
	}
	none.put(span{ID: 1})

	r := newSpanRecorder(3)
	root := r.reserve()
	child := r.add("child", root, 7, 2, 3)
	r.put(span{ID: root, Req: 7, Name: "root", Start: 1, End: 4})
	if child == 0 || root == 0 || child == root {
		t.Fatalf("ids root=%d child=%d", root, child)
	}
	r.add("kept", 0, 0, 5, 6)
	if r.add("over", 0, 0, 7, 8) != 0 || r.dropped != 1 {
		t.Errorf("the recorder must drop spans beyond its limit (dropped=%d)", r.dropped)
	}

	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := r.write(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var back []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		back = append(back, s)
	}
	if len(back) != 3 || back[0].Name != "child" || back[0].Parent != root || back[1].Req != 7 {
		t.Errorf("spans read back: %+v", back)
	}
}
