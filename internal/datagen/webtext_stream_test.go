package datagen

import "testing"

// checkStreamMatchesReference compares the stream, read window fragments
// at a time, and GenerateWebText with the generator as it was.
func checkStreamMatchesReference(t *testing.T, cfg WebTextConfig, window int) {
	t.Helper()
	want := refGenerateWebText(cfg)
	var got []Fragment
	w := NewWebText(cfg)
	for win := w.Next(window); len(win) > 0; win = w.Next(window) {
		if len(win) > window {
			t.Fatalf("Next(%d) returned %d fragments", window, len(win))
		}
		got = append(got, win...)
	}
	if i := firstDifference(got, want); i >= 0 {
		t.Fatalf("seed %d, %d fragments, windows of %d: the stream differs from the reference at fragment %d of %d/%d",
			cfg.Seed, cfg.Fragments, window, i, len(got), len(want))
	}
	if i := firstDifference(GenerateWebText(cfg), want); i >= 0 {
		t.Fatalf("seed %d, %d fragments: GenerateWebText differs from the reference at fragment %d", cfg.Seed, cfg.Fragments, i)
	}
}

// firstDifference is the first place a and b differ, -1 when they are equal.
func firstDifference(a, b []Fragment) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

func TestWebTextMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for _, c := range []struct{ fragments, window int }{{0, 1}, {1, 500}, {2, 1}, {2000, 500}, {1203, 7}, {513, 512}} {
			checkStreamMatchesReference(t, WebTextConfig{Fragments: c.fragments, Seed: seed}, c.window)
		}
	}
}

func FuzzWebTextMatchesReference(f *testing.F) {
	f.Add(int64(1), uint16(0), uint16(1))
	f.Add(int64(1), uint16(2000), uint16(500))
	f.Add(int64(-7), uint16(501), uint16(500))
	f.Add(int64(3), uint16(37), uint16(5))
	f.Fuzz(func(t *testing.T, seed int64, fragments, window uint16) {
		checkStreamMatchesReference(t, WebTextConfig{Fragments: int(fragments % 2048), Seed: seed}, 1+int(window%600))
	})
}
