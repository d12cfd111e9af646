package xenstore

import (
	"errors"
	"testing"

	"nephele/internal/vclock"
)

func TestWriteReadRemove(t *testing.T) {
	s := New(0)
	if err := s.Write("/local/domain/1/name", "guest1", nil); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read("/local/domain/1/name", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != "guest1" {
		t.Fatalf("Read = %q", got)
	}
	// Intermediate nodes were created.
	if !s.Exists("/local/domain", nil) {
		t.Fatal("intermediate node missing")
	}
	if err := s.Remove("/local/domain/1", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read("/local/domain/1/name", nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("read after remove: %v, want ErrNotFound", err)
	}
}

func TestRemoveSubtreeUpdatesNodeCount(t *testing.T) {
	s := New(0)
	s.Write("/a/b/c", "1", nil)
	s.Write("/a/b/d", "2", nil)
	n := s.NodeCount() // a, b, c, d = 4
	if n != 4 {
		t.Fatalf("NodeCount = %d, want 4", n)
	}
	s.Remove("/a/b", nil)
	if got := s.NodeCount(); got != 1 {
		t.Fatalf("NodeCount after remove = %d, want 1", got)
	}
}

func TestDirectorySorted(t *testing.T) {
	s := New(0)
	s.Write("/dev/vif/2", "", nil)
	s.Write("/dev/vif/0", "", nil)
	s.Write("/dev/vif/1", "", nil)
	names, err := s.Directory("/dev/vif", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 || names[0] != "0" || names[1] != "1" || names[2] != "2" {
		t.Fatalf("Directory = %v", names)
	}
}

func TestBadPaths(t *testing.T) {
	s := New(0)
	for _, p := range []string{"", "relative", "//double", "/trailing//x", "/trailing/", "/a//"} {
		if err := s.Write(p, "v", nil); !errors.Is(err, ErrBadPath) {
			t.Errorf("Write(%q): %v, want ErrBadPath", p, err)
		}
		if _, err := s.Read(p, nil); !errors.Is(err, ErrBadPath) {
			t.Errorf("Read(%q): %v, want ErrBadPath", p, err)
		}
		if err := s.Remove(p, nil); !errors.Is(err, ErrBadPath) {
			t.Errorf("Remove(%q): %v, want ErrBadPath", p, err)
		}
		if s.Exists(p, nil) {
			t.Errorf("Exists(%q)", p)
		}
	}
	if err := s.Remove("/", nil); !errors.Is(err, ErrBadPath) {
		t.Errorf("Remove(/): %v, want ErrBadPath", err)
	}
	if n := s.NodeCount(); n != 0 {
		t.Errorf("bad paths left %d nodes", n)
	}
}

// TestLeavesAndPathWalk: a leaf has an empty kids list and behaves like an
// empty directory, and walking a path to a node builds nothing on the heap.
func TestLeavesAndPathWalk(t *testing.T) {
	s := New(0)
	const leaf = "/local/domain/3/device/vif/0/state"
	s.Write(leaf, "4", nil)
	if names, err := s.Directory(leaf, nil); err != nil || len(names) != 0 {
		t.Fatalf("Directory of a leaf = %v, %v", names, err)
	}
	if err := s.Remove(leaf+"/x", nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Remove under a leaf: %v", err)
	}
	if err := s.Remove(leaf+"/x/y", nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Remove two levels under a leaf: %v", err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if v, err := s.Read(leaf, nil); err != nil || v != "4" {
			t.Fatalf("Read = %q, %v", v, err)
		}
		if s.Exists(leaf+"/x", nil) || !s.Exists("/local/domain", nil) {
			t.Fatal("Exists")
		}
	}); allocs != 0 {
		t.Fatalf("reading a seven-element path allocates %v times", allocs)
	}
	before := s.NodeCount()
	s.Write(leaf+"/x", "", nil) // the leaf becomes a directory
	if names, _ := s.Directory(leaf, nil); len(names) != 1 || s.NodeCount() != before+1 {
		t.Fatalf("child of a former leaf: %v, %d nodes", names, s.NodeCount())
	}
	if err := s.Remove("/local", nil); err != nil || s.NodeCount() != 0 {
		t.Fatalf("Remove(/local): %v, %d nodes left", err, s.NodeCount())
	}
}

func TestRequestAccounting(t *testing.T) {
	s := New(0)
	meter := vclock.NewMeter(nil)
	s.Write("/a", "1", meter)
	s.Read("/a", meter)
	st := s.Stats()
	if st.Requests != 2 || st.Writes != 1 {
		t.Fatalf("stats = %+v, want 2 requests / 1 write", st)
	}
	if meter.Elapsed() < 2*meter.Costs().StoreRequest {
		t.Fatalf("charged %v, want at least 2 StoreRequest", meter.Elapsed())
	}
}

func TestRequestCostGrowsWithStoreSize(t *testing.T) {
	s := New(0)
	for i := 0; i < 100; i++ {
		s.Write("/n/"+string(rune('a'+i%26))+string(rune('a'+i/26)), "v", nil)
	}
	small := vclock.NewMeter(nil)
	s.Read("/n/aa", small)
	for i := 0; i < 100; i++ {
		s.Write("/m/"+string(rune('a'+i%26))+string(rune('a'+i/26)), "v", nil)
	}
	big := vclock.NewMeter(nil)
	s.Read("/n/aa", big)
	if big.Elapsed() <= small.Elapsed() {
		t.Fatalf("request cost did not grow with store size: %v vs %v", small.Elapsed(), big.Elapsed())
	}
}

func TestAccessLogRotationSpikes(t *testing.T) {
	s := New(10)
	var rotations int
	for i := 0; i < 25; i++ {
		meter := vclock.NewMeter(nil)
		s.Write("/spam", "x", meter)
		if meter.Elapsed() >= meter.Costs().StoreLogRot {
			rotations++
		}
	}
	if rotations != 2 {
		t.Fatalf("rotation spikes = %d, want 2", rotations)
	}
	if s.Stats().LogRotations != 2 {
		t.Fatalf("LogRotations = %d, want 2", s.Stats().LogRotations)
	}
}

// TestDisableAccessLog checks that a zero rotation period turns request
// logging off: writes never stall the store.
func TestDisableAccessLog(t *testing.T) {
	s := New(0)
	for i := 0; i < 20; i++ {
		s.Write("/spam", "x", nil)
	}
	if s.Stats().LogRotations != 0 {
		t.Fatal("rotations happened with logging disabled")
	}
}

func TestWalk(t *testing.T) {
	s := New(0)
	s.Write("/w/a", "1", nil)
	s.Write("/w/b/c", "2", nil)
	var paths []string
	if err := s.Walk("/w", func(p, v string) { paths = append(paths, p) }); err != nil {
		t.Fatal(err)
	}
	want := []string{"/w", "/w/a", "/w/b", "/w/b/c"}
	if len(paths) != len(want) {
		t.Fatalf("Walk visited %v, want %v", paths, want)
	}
	for i := range want {
		if paths[i] != want[i] {
			t.Fatalf("Walk visited %v, want %v", paths, want)
		}
	}
}
