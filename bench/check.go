package main

import (
	"errors"
	"fmt"

	"terradir/internal/core"
	"terradir/internal/namespace"
)

// answer is a lookup's outcome reduced to what the checker judges; both
// overlay.LookupResult and gateway.Result map onto it.
type answer struct {
	ok    bool
	node  core.NodeID
	name  string
	hosts []core.ServerID
	hops  int
	why   string // the system's own reason when !ok
}

// checkAnswer rejects anything but a complete, correct resolution of dest.
func checkAnswer(tree *namespace.Tree, dest core.NodeID, a answer) error {
	switch {
	case !a.ok:
		return declined(fmt.Errorf("lookup of node %d did not resolve (%s after %d hops)", dest, a.why, a.hops))
	case a.node != dest:
		return fmt.Errorf("lookup of node %d answered for node %d", dest, a.node)
	case a.name != tree.Name(dest):
		return fmt.Errorf("lookup of node %d named it %q, want %q", dest, a.name, tree.Name(dest))
	case len(a.hosts) == 0:
		return fmt.Errorf("lookup of node %d returned no hosts", dest)
	}
	return nil
}

// checkHosted verifies that at least one of the returned hosts really hosts
// dest. It costs an event-loop round trip per host, so callers sample it.
func checkHosted(hostsNode func(core.ServerID, core.NodeID) bool, dest core.NodeID, hosts []core.ServerID) error {
	for _, h := range hosts {
		if hostsNode(h, dest) {
			return nil
		}
	}
	return fmt.Errorf("none of the hosts %v returned for node %d hosts it", hosts, dest)
}

// errDeclined marks an operation the system itself declined or failed to
// complete; it is worth another attempt, where a wrong answer is not.
var errDeclined = errors.New("declined")

// errRefused is the owner declining a write to a node it holds only on disk.
var errRefused = declined(errors.New("owner refused the write"))
