package apps

import (
	"errors"
	"fmt"
	"strings"

	"nephele/internal/netsim"
	"nephele/internal/vclock"
)

// The NGINX use case (§7.1): workers created by fork() scale request
// throughput with the core count. Two deployment modes exist:
//
//   - processes on Linux: all workers listen on one address/port with
//     SO_REUSEPORT (socket sharding); the kernel load-balances incoming
//     connections, and each request pays user/kernel crossings plus
//     scheduler jitter;
//   - unikernel clones: one worker per clone, identical MAC+IP aggregated
//     by a Linux bond in Dom0; the bond hashes flows to clones, each core
//     is used exclusively by its pinned clone, and there is no
//     user/kernel boundary inside a unikernel.
//
// The model charges per-request service costs accordingly; the Fig. 7
// driver distributes a wrk-like workload over the workers through the
// real switching path for clones (bond FlowHash) and the socket-sharding
// hash for processes.

// Deployment selects the worker substrate.
type Deployment int

const (
	// DeployProcesses runs workers as Linux processes (socket sharding).
	DeployProcesses Deployment = iota
	// DeployClones runs workers as unikernel clones behind a bond.
	DeployClones
)

func (d Deployment) String() string {
	if d == DeployProcesses {
		return "nginx-processes"
	}
	return "nginx-clones"
}

// Per-request service costs calibrated to Fig. 7's ~27k requests/sec per
// worker. Clones avoid user/kernel crossings, so their base cost is
// slightly lower and their jitter much smaller.
const (
	processServiceBase = 36 * vclock.Duration(1000) // 36µs
	cloneServiceBase   = 34 * vclock.Duration(1000) // 34µs
	processJitterMax   = 10 * vclock.Duration(1000) // up to 10µs scheduler jitter
	cloneJitterMax     = 1 * vclock.Duration(1000)  // ~1µs
)

// ErrNoWorkers reports a server without workers.
var ErrNoWorkers = errors.New("apps: nginx has no workers")

// Worker is one NGINX worker: a meter accumulating its pinned core's busy
// time plus counters.
type Worker struct {
	ID     int
	meter  *vclock.Meter
	served int
}

// Served reports requests handled by this worker.
func (w *Worker) Served() int { return w.served }

// Nginx is the server: a set of workers and a deployment mode.
type Nginx struct {
	Deployment Deployment
	workers    []*Worker
	// jitterSeed varies the deterministic pseudo-jitter between
	// repetitions (the run-to-run variance the paper reports for
	// processes).
	jitterSeed uint32
	body       string
}

// NewNginx creates a server with the given worker count.
func NewNginx(dep Deployment, workers int, costs *vclock.CostModel) *Nginx {
	n := &Nginx{Deployment: dep, body: "<html>nephele nginx</html>"}
	for i := 0; i < workers; i++ {
		n.workers = append(n.workers, &Worker{ID: i, meter: vclock.NewMeter(costs)})
	}
	return n
}

// SetJitterSeed varies the pseudo-jitter (one seed per wrk repetition).
func (n *Nginx) SetJitterSeed(s uint32) { n.jitterSeed = s }

// jitter derives a deterministic per-request jitter in [0, max).
func (n *Nginx) jitter(req uint32, max vclock.Duration) vclock.Duration {
	if max == 0 {
		return 0
	}
	h := (req*2654435761 + n.jitterSeed*40503) ^ (req >> 7)
	return vclock.Duration(h) % max
}

// HandleHTTP parses a minimal HTTP request and produces the response; it
// is the functional path the examples exercise end to end.
func HandleHTTP(req string, body string) string {
	line := req
	if i := strings.IndexByte(req, '\n'); i >= 0 {
		line = strings.TrimRight(req[:i], "\r")
	}
	parts := strings.Fields(line)
	if len(parts) < 2 || parts[0] != "GET" {
		return "HTTP/1.1 400 Bad Request\r\ncontent-length: 0\r\n\r\n"
	}
	return fmt.Sprintf("HTTP/1.1 200 OK\r\ncontent-length: %d\r\n\r\n%s", len(body), body)
}

// routeRequest picks the worker for a request the way the deployment
// does: socket-sharding hash for processes, the real bond flow hash for
// clones.
func (n *Nginx) routeRequest(p netsim.Packet) int {
	switch n.Deployment {
	case DeployClones:
		return int(netsim.FlowHash(p) % uint32(len(n.workers)))
	default:
		// SO_REUSEPORT: the kernel hashes the 4-tuple too, but over
		// its own hash function; reuse FlowHash with a twist so the
		// two deployments don't share collisions.
		return int((netsim.FlowHash(p) ^ 0x9e3779b9) % uint32(len(n.workers)))
	}
}

// ServeRequest charges one request to the routed worker and returns the
// response.
func (n *Nginx) ServeRequest(p netsim.Packet) (string, error) {
	if len(n.workers) == 0 {
		return "", ErrNoWorkers
	}
	w := n.workers[n.routeRequest(p)]
	base, jmax := processServiceBase, processJitterMax
	if n.Deployment == DeployClones {
		base, jmax = cloneServiceBase, cloneJitterMax
	}
	w.meter.Add(base + n.jitter(uint32(w.served)+uint32(w.ID)<<20, jmax))
	w.served++
	return HandleHTTP(string(p.Payload), n.body), nil
}

// RunResult reports one load-generation session.
type RunResult struct {
	Requests   int
	Elapsed    vclock.Duration // the busiest worker's core time
	Throughput float64         // requests per second of virtual time
	PerWorker  []int
}

// Run pushes total requests from conns concurrent connections through the
// server (a wrk session): each connection is a distinct flow (unique
// source port), requests round-robin over connections, and the session
// ends when every worker has drained its share. Workers run on distinct
// pinned cores, so the session's elapsed time is the busiest worker's
// time.
func (n *Nginx) Run(total, conns int) (*RunResult, error) {
	if len(n.workers) == 0 {
		return nil, ErrNoWorkers
	}
	start := make([]vclock.Duration, len(n.workers))
	served0 := make([]int, len(n.workers))
	for i, w := range n.workers {
		start[i] = w.meter.Elapsed()
		served0[i] = w.served
	}
	for i := 0; i < total; i++ {
		conn := i % conns
		pkt := netsim.Packet{
			SrcIP:   netsim.IP{10, 0, 0, 1},
			DstIP:   netsim.IP{10, 0, 0, 2},
			SrcPort: uint16(10000 + conn),
			DstPort: 80,
			Proto:   netsim.ProtoTCP,
			Payload: []byte("GET /index.html HTTP/1.1\r\n\r\n"),
		}
		if _, err := n.ServeRequest(pkt); err != nil {
			return nil, err
		}
	}
	res := &RunResult{Requests: total, PerWorker: make([]int, len(n.workers))}
	for i, w := range n.workers {
		busy := w.meter.Elapsed() - start[i]
		if busy > res.Elapsed {
			res.Elapsed = busy
		}
		res.PerWorker[i] = w.served - served0[i]
	}
	if res.Elapsed > 0 {
		res.Throughput = float64(total) / res.Elapsed.Seconds()
	}
	return res, nil
}
