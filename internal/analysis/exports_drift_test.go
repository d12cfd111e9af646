package analysis_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// TestExportsHaveProgramReferences is the drift check against test-only API
// in internal/: every exported package-level identifier, method and struct
// field there must be referenced from a non-test file of the module, or be
// listed in testOnlyExports with the reason it stays. A method also counts
// as referenced when it implements an interface method that some non-test
// file calls or that the standard library calls for us (error, fmt.Stringer,
// json.Marshaler). A new unlisted identifier fails the test, and so does a
// listed one that gained a caller or was deleted.
func TestExportsHaveProgramReferences(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module; skipped with -short")
	}
	mod, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	loader, pkgs := mod.loader, mod.pkgs

	// Referenced objects, and the interface methods non-test code calls.
	// A function's uses inside its own body (recursion) do not count.
	body := make(map[types.Object][2]token.Pos)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					body[pkg.Info.Defs[fd.Name]] = [2]token.Pos{fd.Body.Pos(), fd.Body.End()}
				}
			}
		}
	}
	used := make(map[types.Object]bool)
	ifaces := make(map[*types.Interface]bool)
	for _, pkg := range pkgs {
		for id, obj := range pkg.Info.Uses {
			obj = origin(obj)
			if r, ok := body[obj]; ok && id.Pos() >= r[0] && id.Pos() < r[1] {
				continue
			}
			used[obj] = true
			if fn, ok := obj.(*types.Func); ok {
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					if it, ok := recv.Type().Underlying().(*types.Interface); ok {
						ifaces[it] = true
					}
				}
			}
		}
	}
	ifaces[types.Universe.Lookup("error").Type().Underlying().(*types.Interface)] = true
	for _, std := range [][2]string{{"fmt", "Stringer"}, {"encoding/json", "Marshaler"}} {
		pkg, err := loader.Import(std[0])
		if err != nil {
			t.Fatal(err)
		}
		ifaces[pkg.Scope().Lookup(std[1]).Type().Underlying().(*types.Interface)] = true
	}
	implements := func(m *types.Func) bool {
		recv := m.Type().(*types.Signature).Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		for it := range ifaces {
			if obj, _, _ := types.LookupFieldOrMethod(it, false, m.Pkg(), m.Name()); obj == nil {
				continue
			}
			if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
				return true
			}
		}
		return false
	}

	prefix := loader.ModulePath + "/internal/"
	unref := make(map[string]bool)
	for _, pkg := range pkgs {
		if !strings.HasPrefix(pkg.Path+"/", prefix) {
			continue
		}
		rel := strings.TrimPrefix(pkg.Path, prefix)
		flag := func(name string, obj types.Object) {
			if !used[obj] {
				unref[rel+"."+name] = true
			}
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			flag(name, obj)
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() && !implements(m) {
					flag(name+"."+m.Name(), m)
				}
			}
			switch u := named.Underlying().(type) {
			case *types.Struct:
				for i := 0; i < u.NumFields(); i++ {
					if f := u.Field(i); f.Exported() && !f.Embedded() {
						flag(name+"."+f.Name(), f)
					}
				}
			case *types.Interface:
				for i := 0; i < u.NumExplicitMethods(); i++ {
					if m := u.ExplicitMethod(i); m.Exported() {
						flag(name+"."+m.Name(), m)
					}
				}
			}
		}
	}

	var fresh, stale []string
	for name := range unref {
		if _, ok := testOnlyExports[name]; !ok {
			fresh = append(fresh, name)
		}
	}
	for name := range testOnlyExports {
		if !unref[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(fresh)
	sort.Strings(stale)
	for _, name := range fresh {
		t.Errorf("internal/%s is exported but no non-test file references it: give it a program caller, delete it, or list it in testOnlyExports with a reason", name)
	}
	for _, name := range stale {
		t.Errorf("testOnlyExports lists internal/%s, which is gone or now has a non-test reference: drop the entry", name)
	}
}

// TestOptionsHaveProgramSetters is the drift check against test-only
// configuration: every field of an exported struct in internal/ named
// Options, Config or *Config must be set by a non-test file of the module,
// as a composite-literal key (a positional literal sets every field) or as
// an assignment target, or be listed in testOnlyOptions with the reason it
// stays. A program may read a field only tests set; the reference check
// above passes it, and every such knob doubles the configurations the tests
// must cover.
func TestOptionsHaveProgramSetters(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module; skipped with -short")
	}
	mod, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}

	set := make(map[types.Object]bool)
	for _, pkg := range mod.pkgs {
		target := func(x ast.Expr) {
			if sel, ok := ast.Unparen(x).(*ast.SelectorExpr); ok {
				if s := pkg.Info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
					set[origin(s.Obj())] = true
				}
			}
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					st, ok := pkg.Info.TypeOf(n).Underlying().(*types.Struct)
					if !ok {
						return true
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							set[origin(pkg.Info.Uses[kv.Key.(*ast.Ident)])] = true
						} else {
							set[st.Field(i)] = true
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						target(lhs)
					}
				case *ast.IncDecStmt:
					target(n.X)
				}
				return true
			})
		}
	}

	prefix := mod.loader.ModulePath + "/internal/"
	var fresh, stale []string
	unset := make(map[string]bool)
	for _, pkg := range mod.pkgs {
		if !strings.HasPrefix(pkg.Path+"/", prefix) {
			continue
		}
		rel := strings.TrimPrefix(pkg.Path, prefix)
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() || !(name == "Options" || strings.HasSuffix(name, "Config")) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !set[f] {
					unset[rel+"."+name+"."+f.Name()] = true
				}
			}
		}
	}
	for name := range unset {
		if _, ok := testOnlyOptions[name]; !ok {
			fresh = append(fresh, name)
		}
	}
	for name := range testOnlyOptions {
		if !unset[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(fresh)
	sort.Strings(stale)
	for _, name := range fresh {
		t.Errorf("internal/%s is configuration no non-test file sets: give it a program setter, delete it with the behaviour behind it, or list it in testOnlyOptions with a reason", name)
	}
	for _, name := range stale {
		t.Errorf("testOnlyOptions lists internal/%s, which is gone or now has a non-test setter: drop the entry", name)
	}
}

// testOnlyOptions is the allowlist of configuration fields only tests set,
// keyed "<package under internal/>.<struct>.<field>", each with the reason
// it stays.
var testOnlyOptions = map[string]string{}

// origin maps an instantiated generic function or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// testOnlyExports is the allowlist: exported identifiers in internal/ that
// only tests reference, keyed "<package under internal/>.<name>" (methods and
// fields as "<Type>.<name>"), each with the reason it stays.
var testOnlyExports = map[string]string{
	"analysis/analysistest.Run":    harness,
	"cluster.Cluster.SetFaults":    harness,
	"fault.CachePoints":            harness,
	"fault.ClusterPoints":          harness,
	"fault.FailAlways":             harness,
	"fault.FailNth":                harness,
	"fault.FailOnce":               harness,
	"fault.IsFatal":                harness,
	"fault.IsFault":                harness,
	"fault.LazyPoints":             harness,
	"fault.PipelinePoints":         harness,
	"fault.PointOf":                harness,
	"fault.Registry.Clear":         harness,
	"fault.Registry.Fired":         harness,
	"fault.Registry.Hits":          harness,
	"fault.Registry.Inject":        harness,
	"fault.Registry.Reset":         harness,
	"fault.Registry.TotalFired":    harness,
	"mem/lazytest.NewScenario":     harness,
	"mem/lazytest.Scenario.Shrink": harness,

	"cloned.Daemon.FailureStats":         audit,
	"cloned.Daemon.Served":               audit,
	"devices.BaseStore.Stats":            audit,
	"devices.DeviceState":                audit,
	"devices.NinePProcess.Domains":       audit,
	"devices.NinePProcess.FidCount":      audit,
	"devices.NinePProcess.Serves":        audit,
	"devices.Vbd.Layers":                 audit,
	"devices.Vbd.OverlaySectors":         audit,
	"devices.Vbd.State":                  audit,
	"devices.Vbd.Stats":                  audit,
	"devices.VbdBackend.Count":           audit,
	"devices.VbdBackend.Store":           audit,
	"devices.Vif.PrivatePages":           audit,
	"devices.Vif.RXBacklog":              audit,
	"devices.Vif.State":                  audit,
	"evtchn.Subsystem.Peer":              audit,
	"evtchn.Subsystem.PortCount":         audit,
	"evtchn.Subsystem.State":             audit,
	"gnttab.Subsystem.ActiveCount":       audit,
	"gnttab.Subsystem.IDCEntries":        audit,
	"hv.Domain.Paused":                   audit,
	"hv.Hypervisor.Domains":              audit,
	"hv.Hypervisor.PendingNotifications": audit,
	"mem.Memory.Refcount":                audit,
	"mem.Memory.UsedBy":                  audit,
	"mem.Space.Dom":                      audit,
	"mem.Space.IsCOW":                    audit,
	"mem.Space.Kind":                     audit,
	"netsim.Bond.SlaveFor":               audit,
	"toolstack.ImageStore.Contains":      audit,
	"toolstack.XL.Lookup":                audit,

	"evtchn.Subsystem.BindInterdomain": xenABI,
	"evtchn.Subsystem.BindVIRQ":        xenABI,
	"evtchn.Subsystem.Close":           xenABI,
	"evtchn.Subsystem.Send":            xenABI,
	"gnttab.Subsystem.End":             xenABI,
	"gnttab.Subsystem.Map":             xenABI,
	"gnttab.Subsystem.Unmap":           xenABI,
	"hv.Hypervisor.IsDescendant":       xenABI,
	"hv.Hypervisor.SameFamily":         xenABI,
	"hv.Registers.RIP":                 xenABI,
	"hv.Registers.RSP":                 xenABI,

	"guest.Kernel.NewSocketPair": paper,
	"guest.Pipe.Close":           paper,
	"guest.SocketPair.ForChild":  paper,
	"guest.SocketPair.Recv":      paper,
	"guest.SocketPair.Send":      paper,

	"apps.Redis.Dirty":          inspector,
	"apps.RedisHost.Faults":     inspector,
	"apps.Worker.Served":        inspector,
	"bench.Figure.SeriesByName": inspector,
	"devices.HostFS.List":       inspector,
	"devices.HostFS.Size":       inspector,
	"faas.Gateway.Instances":    inspector,
	"gmem.Heap.LiveBytes":       inspector,
	"gmem.Heap.Used":            inspector,
	"gmem.SpaceIO.Pages":        inspector,
	"guest.Kernel.ConsoleLog":   inspector,
	"guest.Kernel.Faults":       inspector,
	"guest.Kernel.GuestIP":      inspector,
	"guest.Kernel.Map":          inspector,
	"hv.Domain.VCPU":            inspector,
	"netsim.Bond.Name":          inspector,
	"netsim.Fabric.Hosts":       inspector,
	"netsim.Fabric.Width":       inspector,
	"netsim.Host.Received":      inspector,
	"netsim.Link.Ends":          inspector,
	"netsim.Link.Width":         inspector,
	"obs.Trace.Render":          inspector,
	"proc.Machine.Process":      inspector,
	"proc.Machine.ProcessCount": inspector,
	"proc.Process.Children":     inspector,
	"proc.Process.Faults":       inspector,
	"proc.Process.Pages":        inspector,
	"ring.Ring.Capacity":        inspector,
	"ring.Ring.PeekAll":         inspector,
	"vclock.Compare":            inspector,
	"vclock.Vector.At":          inspector,
	"vclock.Vector.Hosts":       inspector,

	"apps.Redis.Del":            model,
	"apps.Redis.Get":            model,
	"devices.HostFS.Remove":     model,
	"devices.Vbd.ReadSector":    model,
	"guest.Kernel.NewMap":       model,
	"guest.Kernel.UDPSend":      model,
	"guest.NineFile.Read":       model,
	"mem.Memory.CopyFrameN":     model,
	"obs.Gauge.Add":             model,
	"obs.OpCtx.WithMeter":       model,
	"ring.Ring.Reset":           model,
	"toolstack.ImageStore.Drop": model,

	"fuzz.SysNanoslp": enum,
}

// Reasons an exported identifier may stay without a non-test reference.
const (
	harness   = "fault-injection or test-harness API: fault points, lazytest, analyzer fixtures"
	audit     = "read-only inspector kept for the invariant audit: frames, devices, endpoints, images"
	xenABI    = "Xen ABI whose state the clone path copies"
	paper     = "paper primitive: the IDC pipes and socket pairs of §4.3"
	inspector = "read-only inspector its package's tests assert through"
	model     = "operation of a modelled component that only its tests drive"
	enum      = "enumeration member, reached by value rather than by name"
)
