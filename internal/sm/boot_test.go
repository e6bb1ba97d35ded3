package sm

import (
	"testing"

	"repro/internal/kv"
	"repro/internal/log"
	"repro/internal/store"
	"repro/internal/types"
)

// resumeRecorder is a BootControl that records the resume position.
type resumeRecorder struct {
	boundary types.Instance
	base     int
	retained []log.Entry
}

func (r *resumeRecorder) Resume(boundary types.Instance, base int, retained []log.Entry) error {
	r.boundary, r.base, r.retained = boundary, base, retained
	return nil
}

// TestInstallIsDurable: a replica that stamped its own snapshot, then
// installed a newer peer snapshot and applied past it, must boot back to
// the same state. Before installs were stamped, the store kept the older
// snapshot while new entries landed past the installed index, and boot
// failed on the gap between the two.
func TestInstallIsDurable(t *testing.T) {
	for _, tc := range []struct {
		name string
		open func(t *testing.T) (p store.Persister, reopen func() store.Persister)
	}{
		{"memory", func(t *testing.T) (store.Persister, func() store.Persister) {
			m := store.NewMemory()
			return m, func() store.Persister { return m }
		}},
		{"file", func(t *testing.T) (store.Persister, func() store.Persister) {
			dir := t.TempDir()
			f, err := store.OpenFile(dir)
			if err != nil {
				t.Fatal(err)
			}
			return f, func() store.Persister {
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}
				g, err := store.OpenFile(dir)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { g.Close() })
				return g
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The peer runs ahead and snapshots at entry 24.
			peer, err := New(Config{Machine: kv.NewStore(), SnapshotEvery: 24})
			if err != nil {
				t.Fatal(err)
			}
			feed(t, peer, 0, 24, 4, 0)
			snap, retained, ok := peer.LatestTransfer()
			if !ok || snap.Index != 24 {
				t.Fatalf("peer snapshot: ok=%v index=%d", ok, snap.Index)
			}

			// The laggard stamps its own snapshot at entry 8 and keeps two
			// WAL entries past it before the install.
			p, reopen := tc.open(t)
			lag, err := New(Config{Machine: kv.NewStore(), SnapshotEvery: 8, Persist: p})
			if err != nil {
				t.Fatal(err)
			}
			feed(t, lag, 0, 10, 4, 0)
			if err := lag.Install(snap, retained); err != nil {
				t.Fatal(err)
			}
			// Both apply the same suffix past the installed boundary.
			feed(t, peer, 24, 6, 4, snap.Instance)
			end := feed(t, lag, 24, 6, 4, snap.Instance)
			if lag.StateDigest() != peer.StateDigest() {
				t.Fatal("laggard diverged from the peer after the install")
			}

			booted, err := New(Config{Machine: kv.NewStore(), SnapshotEvery: 8})
			if err != nil {
				t.Fatal(err)
			}
			rec := &resumeRecorder{}
			st, err := Boot(reopen(), booted, rec)
			if err != nil {
				t.Fatalf("boot after install: %v", err)
			}
			if !st.HadSnapshot || st.SnapIndex != snap.Index || st.SnapInstance != snap.Instance {
				t.Fatalf("boot restored snapshot (%d, %v), want the installed (%d, %v)",
					st.SnapIndex, st.SnapInstance, snap.Index, snap.Instance)
			}
			if booted.Applied() != lag.Applied() || booted.StateDigest() != lag.StateDigest() {
				t.Fatalf("booted at %d entries (state %x), live at %d (%x)",
					booted.Applied(), booted.StateDigest(), lag.Applied(), lag.StateDigest())
			}
			if rec.boundary != end {
				t.Fatalf("resume boundary %v, want %v", rec.boundary, end)
			}
		})
	}
}
