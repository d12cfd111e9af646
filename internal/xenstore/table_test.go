package xenstore

import (
	"errors"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// TestNodeLayout pins the size of a node table entry: two strings (name and
// value, two words each) and the kids slice (three words), with no pointer
// to a heap node or map of children. A field that widens it shows here,
// not in the benchmark's host_live_mb.
func TestNodeLayout(t *testing.T) {
	if got, want := unsafe.Sizeof(node{}), 7*unsafe.Sizeof(uintptr(0)); got != want {
		t.Errorf("a node is %d bytes, want %d", got, want)
	}
}

// TestLocateFillsChunksInOrder walks the first table indices: each one is
// the next slot of its chunk, and a chunk is full, at 16, 32, 64, 128 and
// then 256 nodes, before the next one starts.
func TestLocateFillsChunksInOrder(t *testing.T) {
	wantLen := []int{16, 32, 64, 128, 256, 256, 256}
	chunk, off := 0, 0
	for i := int32(0); chunk < len(wantLen); i++ {
		if c, o := locate(i); c != chunk || o != off {
			t.Fatalf("node %d sits at chunk %d offset %d, want chunk %d offset %d", i, c, o, chunk, off)
		}
		if off++; off == wantLen[chunk] {
			if got := chunkLen(chunk); got != wantLen[chunk] {
				t.Fatalf("chunk %d holds %d nodes, want %d", chunk, got, wantLen[chunk])
			}
			chunk, off = chunk+1, 0
		}
	}
	// The last index a table can hand out lands in a chunk whose number
	// fits an int.
	if c, o := locate(1<<31 - 1); c != (1<<31-1+firstChunk)>>fixedChunkShift+smallChunks-1 || o != (1<<31-1+firstChunk)&(fixedChunk-1) {
		t.Fatalf("node 2^31-1 sits at chunk %d offset %d", c, o)
	}
}

// deviceWrites returns the writes that make one device's frontend and
// backend entries for domain dom, as full paths, in the order and with the
// values xl uses on boot (devices.WriteDevicePair, which issues them
// through a Dir handle on each end): seven frontend keys, six backend
// keys, and each extra key on both ends.
func deviceWrites(dom, kind string, extra ...string) [][2]string {
	fp := "/local/domain/" + dom + "/device/" + kind + "/0"
	bp := "/local/domain/0/backend/" + kind + "/" + dom + "/0"
	writes := [][2]string{
		{fp + "/backend", bp}, {fp + "/backend-id", "0"}, {fp + "/state", "4"},
		{fp + "/handle", "0"}, {fp + "/tx-ring-ref", "0"}, {fp + "/rx-ring-ref", "0"},
		{fp + "/event-channel", "0"},
		{bp + "/frontend", fp}, {bp + "/frontend-id", dom}, {bp + "/state", "4"},
		{bp + "/handle", "0"}, {bp + "/online", "1"}, {bp + "/hotplug-status", "connected"},
	}
	for _, k := range extra {
		writes = append(writes, [2]string{fp + "/" + k, "x"}, [2]string{bp + "/" + k, "x"})
	}
	return writes
}

// consoleVif is the device set of the benchmark's guests: a console and
// one vif with its mac and ip, for domain 3.
func consoleVif() [][2]string {
	return append(deviceWrites("3", "console"), deviceWrites("3", "vif", "mac", "ip")...)
}

func writeAll(s *Store, writes [][2]string) {
	for _, w := range writes {
		s.Write(w[0], w[1], nil)
	}
}

// TestCloneAllocsPerDirectory pins what xs_clone of a console+vif device
// tree costs the host: one kids array per directory it creates, sized once
// from the source, and one string per peer path it rewrites. Node names
// are the source's strings and a request rewrites with both domids
// formatted, so no leaf allocates. Each run clones domain 3's frontend
// tree and both backend directories, as xencloned does for one child:
// 5 + 2 + 2 directories and 2 + 1 + 1 peer paths, 13 allocations, plus
// what the caller spends naming the child:
//
//   - "store": Store.Clone with the three destination paths built per
//     run (three), at domids below 100, which format without allocating;
//   - "store-4-digit": the same at domids of 1000 and up, which cost a
//     run one allocation to format and each request another to format
//     again (four more);
//   - "dir": Dir.Clone, xencloned's way, at domids of 1000 and up: the
//     child's ID formatted once per run and its device directory's path
//     built from it (two), one request per kind's frontend directory with
//     the kind as the key, and the backend directories reached through
//     one handle each, kept across runs, with the ID as the key.
func TestCloneAllocsPerDirectory(t *testing.T) {
	const runs = 40
	for _, tc := range []struct {
		name  string
		first int // the first child's domid
		want  float64
	}{
		{"store", 10, 13 + 3},
		{"store-4-digit", 1000, 13 + 3 + 4},
		{"dir", 1000, 13 + 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(0)
			writeAll(s, consoleVif())
			// Every child's clone roots exist as leaves, so no run grows a
			// directory that was there before it. Writing and removing 1 600
			// scratch leaves then leaves that many free slots behind, so no
			// run grows the table either and the count is exact.
			for k := 0; k <= runs; k++ { // AllocsPerRun runs once more to warm up
				c := strconv.Itoa(tc.first + k)
				s.Write("/local/domain/"+c+"/device", "", nil)
				s.Write("/local/domain/0/backend/console/"+c, "", nil)
				s.Write("/local/domain/0/backend/vif/"+c, "", nil)
			}
			for k := 0; k < 1600; k++ {
				s.Write("/scratch/"+strconv.Itoa(k), "", nil)
			}
			s.Remove("/scratch", nil)
			console, err := s.Dir("/local/domain/0/backend/console")
			if err != nil {
				t.Fatal(err)
			}
			vif, err := s.Dir("/local/domain/0/backend/vif")
			if err != nil {
				t.Fatal(err)
			}

			dom := uint32(tc.first)
			allocs := testing.AllocsPerRun(runs, func() {
				var err error
				if tc.name == "dir" {
					c := strconv.FormatUint(uint64(dom), 10)
					var dev Dir
					if dev, err = s.Dir("/local/domain/" + c + "/device"); err == nil {
						err = errors.Join(
							dev.Clone("3", c, CloneDevVif, "/local/domain/3/device/console", "console", nil),
							dev.Clone("3", c, CloneDevVif, "/local/domain/3/device/vif", "vif", nil),
							console.Clone("3", c, CloneDevVif, "/local/domain/0/backend/console/3", c, nil),
							vif.Clone("3", c, CloneDevVif, "/local/domain/0/backend/vif/3", c, nil))
					}
				} else {
					c := strconv.Itoa(int(dom))
					err = errors.Join(
						s.Clone(3, dom, CloneDevVif, "/local/domain/3/device", "/local/domain/"+c+"/device", nil),
						s.Clone(3, dom, CloneDevVif, "/local/domain/0/backend/console/3", "/local/domain/0/backend/console/"+c, nil),
						s.Clone(3, dom, CloneDevVif, "/local/domain/0/backend/vif/3", "/local/domain/0/backend/vif/"+c, nil))
				}
				if err != nil {
					t.Fatal(err)
				}
				dom++
			})
			if allocs != tc.want {
				t.Fatalf("cloning a console+vif tree allocates %v times, want %v", allocs, tc.want)
			}
			last := strconv.Itoa(int(dom) - 1)
			if got, _ := s.Read("/local/domain/0/backend/vif/"+last+"/0/frontend", nil); got != "/local/domain/"+last+"/device/vif/0" {
				t.Fatalf("the last clone's vif frontend = %q", got)
			}
		})
	}
}

// TestRewriteAfterRemoveAllocatesNothing removes a guest's domain
// directory and writes its device entries again in boot order: the writes
// take the freed slots back in the order the subtree listed them, so each
// directory gets the slot, and the kids array, of the directory it was, and
// once warm the pair allocates nothing. AllocsPerRun averages rounding
// down, so it is asked for one run at a time.
func TestRewriteAfterRemoveAllocatesNothing(t *testing.T) {
	s := New(0)
	var front [][2]string
	for _, w := range consoleVif() {
		s.Write(w[0], w[1], nil)
		if strings.HasPrefix(w[0], "/local/domain/3/") {
			front = append(front, w)
		}
	}
	nodes := s.NodeCount()
	for run := 0; run < 3; run++ {
		if allocs := testing.AllocsPerRun(1, func() {
			if err := s.Remove("/local/domain/3", nil); err != nil {
				t.Fatal(err)
			}
			writeAll(s, front)
		}); allocs != 0 {
			t.Fatalf("run %d: removing and rewriting a device tree allocates %v times", run, allocs)
		}
	}
	if s.NodeCount() != nodes {
		t.Fatalf("NodeCount = %d after the rewrites, want %d", s.NodeCount(), nodes)
	}
}

// TestDirRemoveAllocatesNothing removes a guest's vif backend directory
// through a handle on the kind's directory, the guest's ID formatted on the
// stack as XL.Destroy formats it, and writes the directory again. The
// removal puts one index on the free list, however many nodes the subtree
// holds, and the rewrite takes the freed slots back from it in preorder:
// once warm the pair allocates nothing.
func TestDirRemoveAllocatesNothing(t *testing.T) {
	s := New(0)
	var back [][2]string
	for _, w := range consoleVif() {
		s.Write(w[0], w[1], nil)
		if strings.HasPrefix(w[0], "/local/domain/0/backend/vif/") {
			back = append(back, w)
		}
	}
	vif, err := s.Dir("/local/domain/0/backend/vif")
	if err != nil {
		t.Fatal(err)
	}
	nodes := s.NodeCount()
	for run := 0; run < 3; run++ {
		if allocs := testing.AllocsPerRun(1, func() {
			var id [10]byte
			free := len(s.free)
			if err := vif.Remove(string(strconv.AppendUint(id[:0], 3, 10)), nil); err != nil {
				t.Fatal(err)
			}
			if got := len(s.free) - free; got != 1 {
				t.Fatalf("removing a %d-node directory put %d indices on the free list, want 1", len(back)+2, got)
			}
			writeAll(s, back)
		}); allocs != 0 {
			t.Fatalf("run %d: removing and rewriting a backend directory allocates %v times", run, allocs)
		}
	}
	if s.NodeCount() != nodes {
		t.Fatalf("NodeCount = %d after the rewrites, want %d", s.NodeCount(), nodes)
	}
}

// TestDirectoryAllocatesOnlyItsResult: listing a directory reads its kids
// in order into the result, with no sort and no scratch slice.
func TestDirectoryAllocatesOnlyItsResult(t *testing.T) {
	s := New(0)
	writeAll(s, consoleVif())
	const dir = "/local/domain/0/backend/vif/3/0"
	if allocs := testing.AllocsPerRun(100, func() {
		if names, err := s.Directory(dir, nil); err != nil || len(names) != 8 {
			t.Fatalf("Directory = %v, %v", names, err)
		}
	}); allocs != 1 {
		t.Fatalf("Directory allocates %v times, want 1", allocs)
	}
}
