package terradir_test

import (
	"context"
	"fmt"
	"time"

	"terradir"
)

// ExampleTreeBuilder shows hand-building the paper's Fig. 1 namespace and
// the namespace-distance metric the routing protocol minimizes.
func ExampleTreeBuilder() {
	var b terradir.TreeBuilder
	root := b.AddRoot("university")
	pub := b.AddChild(root, "public")
	priv := b.AddChild(root, "private")
	people := b.AddChild(pub, "people")
	b.AddChild(priv, "people")
	ns := b.Build()

	fmt.Println(ns.Name(people))
	fmt.Println(ns.Lookup("/university/private/people") != terradir.InvalidNode)
	fmt.Println(ns.Distance(people, priv)) // up to /university, down to private
	// Output:
	// /university/public/people
	// true
	// 3
}

// ExampleNewBalancedNamespace builds the paper's synthetic namespace Ns.
func ExampleNewBalancedNamespace() {
	ns := terradir.NewBalancedNamespace(2, 15)
	fmt.Println(ns.Len(), ns.MaxDepth())
	// Output: 32767 14
}

// ExampleNewSimulation runs a small deterministic simulated deployment under
// a shifting hot-spot and reports that the adaptive protocol replicated.
func ExampleNewSimulation() {
	ns := terradir.NewBalancedNamespace(2, 9)
	p := terradir.DefaultSimParams(ns, 16)
	p.Seed = 7
	sim, err := terradir.NewSimulation(p)
	if err != nil {
		panic(err)
	}
	w := terradir.ZipfWorkload(ns, 3, 1.5, 300, 15)
	sim.Run(w, 15)
	sim.Drain(30)

	fmt.Println("completed queries:", sim.Metrics.Completed > 0)
	fmt.Println("replicas created:", sim.TotalReplicas() > 0)
	fmt.Println("drop fraction below 10%:", sim.Metrics.DropFraction() < 0.10)
	// Output:
	// completed queries: true
	// replicas created: true
	// drop fraction below 10%: true
}

// ExampleRunExperiment regenerates the paper's Table 1.
func ExampleRunExperiment() {
	r, err := terradir.RunExperiment("table1", terradir.ReducedScale(0.02, 1))
	if err != nil {
		panic(err)
	}
	for _, row := range r.Rows {
		fmt.Println(row[0])
	}
	// Output:
	// Owned
	// Replicated
	// Neighboring
	// Cached
}

// ExampleNewLocalOverlay is README's quickstart: a live in-process overlay
// over the paper's Ns resolving a name to its hosting servers (§2.1).
func ExampleNewLocalOverlay() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	ns := terradir.NewBalancedNamespace(2, 15) // the paper's Ns: 32,767 nodes
	ov, err := terradir.NewLocalOverlay(ns, terradir.OverlayOptions{Servers: 16})
	if err != nil {
		panic(err)
	}
	defer ov.StopAll()

	res, err := ov.LookupName(ctx, 0, ns.Name(12345)) // route through the overlay
	fmt.Println(err == nil, res.OK, len(res.Hosts) > 0)
	// Output: true true true
}

// ExampleFaultTransport is README's fault-injection snippet: a crashed
// server and a partition, injected without touching protocol code.
func ExampleFaultTransport() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	ns := terradir.NewBalancedNamespace(2, 10)
	ov, err := terradir.NewLocalOverlay(ns, terradir.OverlayOptions{
		Servers: 16, Fault: &terradir.FaultOptions{Seed: 7},
	})
	if err != nil {
		panic(err)
	}
	defer ov.StopAll()
	ov.KillServer(3) // fail-stop: loop halted, traffic dropped
	ov.Fault().Partition([]terradir.ServerID{0, 1}, []terradir.ServerID{2})

	// A node server 0 owns resolves whatever the rest of the overlay does.
	dest := terradir.InvalidNode
	for nd := 0; nd < ns.Len() && dest == terradir.InvalidNode; nd++ {
		if ov.OwnerOf(terradir.NodeID(nd)) == 0 {
			dest = terradir.NodeID(nd)
		}
	}
	res, err := ov.Lookup(ctx, 0, dest)
	fmt.Println(err == nil, res.OK, ov.Fault().Crashed(3))
	// Output: true true true
}
