package apps

import (
	"fmt"
	"strings"
	"testing"

	"nephele/internal/cloned"
	"nephele/internal/core"
	"nephele/internal/devices"
	"nephele/internal/guest"
	"nephele/internal/netsim"
	"nephele/internal/obs"
	"nephele/internal/proc"
	"nephele/internal/toolstack"
	"nephele/internal/vclock"
)

// redisGuestEnv boots a Unikraft guest configured the way the Fig. 8
// experiment does: a 9pfs mount, network cloning skipped.
func redisGuestEnv(t *testing.T) (*core.Platform, *KernelHost) {
	t.Helper()
	p := core.NewPlatform(core.Options{
		MemoryBytes:   2 << 30,
		SkipNameCheck: true,
		Cloned:        cloned.Options{SkipNetworkDevices: true},
	})
	rec, err := p.Boot(toolstack.DomainConfig{
		Name:      "redis-0",
		MemoryMB:  16,
		VCPUs:     1,
		MaxClones: 100,
		NinePFS:   []toolstack.NinePConfig{{Export: "/export", Tag: "rootfs"}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	k, err := guest.Boot(p, rec, guest.FlavorUnikraft, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p, NewKernelHost(k)
}

func TestRedisSetGetDel(t *testing.T) {
	_, host := redisGuestEnv(t)
	r, err := NewRedis(host, 64)
	if err != nil {
		t.Fatal(err)
	}
	r.Set(obs.OpCtx{}, "name", []byte("nephele"))
	got, err := r.Get("name")
	if err != nil || string(got) != "nephele" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if r.Len() != 1 || r.Dirty() != 1 {
		t.Fatalf("Len/Dirty = %d/%d", r.Len(), r.Dirty())
	}
	if err := r.Del(obs.OpCtx{}, "name"); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Fatal("key not deleted")
	}
}

func TestRedisBGSaveOnUnikernel(t *testing.T) {
	p, host := redisGuestEnv(t)
	r, err := NewRedis(host, 256)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.MassInsert(obs.OpCtx{}, 200, 64); err != nil {
		t.Fatal(err)
	}
	res, err := r.BGSave(obs.Ctx(p.NewMeter()), "dump.rdb")
	if err != nil {
		t.Fatal(err)
	}
	if res.Keys != 200 {
		t.Fatalf("saved %d keys", res.Keys)
	}
	if res.ForkTime <= 0 || res.SerializeTime <= 0 {
		t.Fatalf("timings = %+v", res)
	}
	// The dump landed on the Dom0 export via 9pfs.
	data, err := p.HostFS.ReadFile("/export/dump.rdb")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "REDIS-SIM-RDB keys=200\n") {
		t.Fatalf("dump header = %.40q", data)
	}
	if res.Bytes != len(data) {
		t.Fatalf("Bytes = %d, file = %d", res.Bytes, len(data))
	}
	if r.Dirty() != 0 {
		t.Fatal("dirty counter not reset")
	}
}

func TestRedisSnapshotConsistencyUnderConcurrentWrites(t *testing.T) {
	// The defining property: the dump reflects the database at fork
	// time even if the parent mutates during serialization. We emulate
	// "during" by mutating right after the fork (the child's view is
	// already fixed).
	p, host := redisGuestEnv(t)
	r, _ := NewRedis(host, 64)
	r.MassInsert(obs.OpCtx{}, 50, 16)

	// Fork for save, then mutate the parent before serializing.
	child, err := host.ForkForSave(obs.OpCtx{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		r.Set(obs.OpCtx{}, fmt.Sprintf("key:%012d", i), []byte("POST-FORK-GARBAGE"))
	}
	// Serialize from the child view by hand.
	childDB := r.db.CloneFor(child)
	childDB.Range(func(key string, val []byte) bool {
		if strings.Contains(string(val), "POST-FORK") {
			t.Fatalf("snapshot contains post-fork write for %s", key)
		}
		return true
	})
	_ = p
}

func TestRedisOnProcessBaseline(t *testing.T) {
	machine := proc.NewMachine(512 << 20)
	fs := devices.NewHostFS()
	pr, err := machine.Spawn(obs.OpCtx{}, 4096)
	if err != nil {
		t.Fatal(err)
	}
	host := NewProcessHost(pr, fs, "/share")
	r, err := NewRedis(host, 128)
	if err != nil {
		t.Fatal(err)
	}
	r.MassInsert(obs.OpCtx{}, 100, 32)
	res, err := r.BGSave(obs.OpCtx{}, "dump.rdb")
	if err != nil {
		t.Fatal(err)
	}
	if res.Keys != 100 {
		t.Fatalf("saved %d keys", res.Keys)
	}
	if _, err := fs.ReadFile("/share/dump.rdb"); err != nil {
		t.Fatal(err)
	}
}

func TestRedisSecondForkCheaper(t *testing.T) {
	// Fig. 8 reports second-fork values because the first fork marks
	// the whole space COW.
	machine := proc.NewMachine(1 << 30)
	fs := devices.NewHostFS()
	pr, _ := machine.Spawn(obs.OpCtx{}, 16384) // 64 MiB
	host := NewProcessHost(pr, fs, "/share")
	r, _ := NewRedis(host, 128)
	r.MassInsert(obs.OpCtx{}, 1000, 64)

	m1 := vclock.NewMeter(nil)
	if _, err := r.BGSave(obs.Ctx(m1), "d1.rdb"); err != nil {
		t.Fatal(err)
	}
	m2 := vclock.NewMeter(nil)
	res2, err := r.BGSave(obs.Ctx(m2), "d2.rdb")
	if err != nil {
		t.Fatal(err)
	}
	_ = res2
	if m2.Elapsed() >= m1.Elapsed() {
		t.Fatalf("second save (%v) not cheaper than first (%v)", m2.Elapsed(), m1.Elapsed())
	}
}

func TestHandleHTTP(t *testing.T) {
	resp := HandleHTTP("GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n", "hello")
	if !strings.HasPrefix(resp, "HTTP/1.1 200 OK") || !strings.HasSuffix(resp, "hello") {
		t.Fatalf("resp = %q", resp)
	}
	if !strings.HasPrefix(HandleHTTP("POST / HTTP/1.1", "x"), "HTTP/1.1 400") {
		t.Fatal("non-GET accepted")
	}
	if !strings.HasPrefix(HandleHTTP("garbage", "x"), "HTTP/1.1 400") {
		t.Fatal("garbage accepted")
	}
}

func TestNginxThroughputScalesWithWorkers(t *testing.T) {
	// Fig. 7's shape: throughput grows linearly with workers, and
	// clones beat processes slightly at each width.
	costs := vclock.DefaultCosts()
	var prevClone float64
	for workers := 1; workers <= 4; workers++ {
		ng := NewNginx(DeployClones, workers, costs)
		res, err := ng.Run(40000, 400*workers)
		if err != nil {
			t.Fatal(err)
		}
		if res.Throughput <= prevClone {
			t.Fatalf("clone throughput did not grow at %d workers: %.0f <= %.0f",
				workers, res.Throughput, prevClone)
		}
		prevClone = res.Throughput

		np := NewNginx(DeployProcesses, workers, costs)
		pres, err := np.Run(40000, 400*workers)
		if err != nil {
			t.Fatal(err)
		}
		if pres.Throughput >= res.Throughput {
			t.Fatalf("%d workers: processes (%.0f req/s) not below clones (%.0f req/s)",
				workers, pres.Throughput, res.Throughput)
		}
	}
	// Rough linearity: 4 workers within 3.2x-4.2x of 1 worker.
	ng1 := NewNginx(DeployClones, 1, costs)
	r1, _ := ng1.Run(40000, 400)
	ratio := prevClone / r1.Throughput
	if ratio < 3.2 || ratio > 4.2 {
		t.Fatalf("4-worker scaling ratio = %.2f, want ~4", ratio)
	}
}

func TestNginxProcessesMoreVariable(t *testing.T) {
	costs := vclock.DefaultCosts()
	spread := func(dep Deployment) float64 {
		min, max := 1e18, 0.0
		for rep := 0; rep < 10; rep++ {
			ng := NewNginx(dep, 2, costs)
			ng.SetJitterSeed(uint32(rep))
			res, err := ng.Run(20000, 800)
			if err != nil {
				t.Fatal(err)
			}
			if res.Throughput < min {
				min = res.Throughput
			}
			if res.Throughput > max {
				max = res.Throughput
			}
		}
		return (max - min) / max
	}
	if sp, sc := spread(DeployProcesses), spread(DeployClones); sc >= sp {
		t.Fatalf("clone variability (%.4f) not below process variability (%.4f)", sc, sp)
	}
}

func TestNginxRoutingSpreadsConnections(t *testing.T) {
	costs := vclock.DefaultCosts()
	ng := NewNginx(DeployClones, 4, costs)
	res, err := ng.Run(40000, 1600)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range res.PerWorker {
		if n == 0 {
			t.Fatalf("worker %d served nothing: %v", i, res.PerWorker)
		}
	}
}

func TestNginxNoWorkers(t *testing.T) {
	ng := NewNginx(DeployClones, 0, nil)
	if _, err := ng.Run(10, 1); err != ErrNoWorkers {
		t.Fatalf("run without workers: %v", err)
	}
	if _, err := ng.ServeRequest(netsim.Packet{}); err != ErrNoWorkers {
		t.Fatalf("serve without workers: %v", err)
	}
}

func TestDeploymentString(t *testing.T) {
	if DeployProcesses.String() == "" || DeployClones.String() == "" {
		t.Fatal("empty deployment string")
	}
}
