package terradir_test

import (
	"bufio"
	"bytes"
	"context"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"terradir/internal/core"
	"terradir/internal/gateway"
	"terradir/internal/membership"
	"terradir/internal/namespace"
	"terradir/internal/overlay"
	"terradir/internal/telemetry"
)

// TestMetricFamiliesDocumented boots every subsystem that registers metrics —
// a TCP peer with membership, persistence and a bounded hot cache, and a
// gateway in front of it — and requires each registered terradir_* family to
// have a row in DESIGN.md §8's metric tables whose reader cell is filled: the
// bench/ column, test or operator question that reads it. A family nobody
// reads is deleted rather than documented, and a row whose family no registry
// exposes is deleted with it.
func TestMetricFamiliesDocumented(t *testing.T) {
	b, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	readers := metricReaders(b)

	tree := namespace.NewBalanced(2, 6)
	owned := make([]core.NodeID, tree.Len())
	for i := range owned {
		owned[i] = core.NodeID(i)
	}
	tr, err := overlay.NewTCPTransport(0, "127.0.0.1:0", map[core.ServerID]string{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	node, err := overlay.NewNode(0, tree, owned, func(core.NodeID) core.ServerID { return 0 }, overlay.Options{
		Membership: &overlay.MembershipOptions{
			Protocol: membership.Options{ProbeInterval: time.Hour},
			Servers:  1,
			SelfAddr: tr.Addr(),
			Peers:    map[core.ServerID]string{0: tr.Addr()},
		},
		Persist: &overlay.PersistOptions{Dir: t.TempDir(), SnapshotInterval: time.Hour, HotCacheEntries: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	overlay.StartTCPNodeVia(node, tr, tr)
	defer node.Stop()

	gwTr, err := overlay.NewTCPTransportOpts(core.ClientID(0), "127.0.0.1:0",
		map[core.ServerID]string{0: tr.Addr()}, overlay.TCPTransportOptions{ClientRole: true})
	if err != nil {
		t.Fatal(err)
	}
	defer gwTr.Close()
	gw, err := gateway.New(gateway.Options{Tree: tree, Self: core.ClientID(0), Peers: []core.ServerID{0}, Wire: gwTr})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := gw.Lookup(ctx, tree.Root()); err != nil {
		t.Fatal(err)
	}

	var missing []string
	fams := families(node.Registry(), gw.Registry())
	registered := map[string]bool{}
	for _, fam := range fams {
		registered[fam] = true
		if readers[fam] == "" {
			missing = append(missing, fam)
		}
	}
	if len(missing) > 0 {
		t.Errorf("%d of %d metric families have no DESIGN.md §8 row naming a reader:\n  %s",
			len(missing), len(fams), strings.Join(missing, "\n  "))
	}
	var stale []string
	for fam := range readers {
		if !registered[fam] {
			stale = append(stale, fam)
		}
	}
	if len(stale) > 0 {
		sort.Strings(stale)
		t.Errorf("%d DESIGN.md §8 rows name a family no registry exposes:\n  %s",
			len(stale), strings.Join(stale, "\n  "))
	}
}

// metricReaders maps each family in the design's metric tables — rows of the
// form | `name` | kind | meaning | reader | — to its reader cell.
func metricReaders(design []byte) map[string]string {
	out := map[string]string{}
	for _, line := range strings.Split(string(design), "\n") {
		cells := strings.Split(strings.TrimSpace(line), "|")
		if len(cells) != 6 || cells[0] != "" || cells[5] != "" {
			continue
		}
		name := strings.Trim(strings.TrimSpace(cells[1]), "`")
		if strings.HasPrefix(name, "terradir_") {
			out[name] = strings.TrimSpace(cells[4])
		}
	}
	return out
}

// families returns the sorted, de-duplicated family names the registries
// expose, read from their Prometheus exposition's TYPE lines.
func families(regs ...*telemetry.Registry) []string {
	seen := map[string]bool{}
	for _, r := range regs {
		var buf bytes.Buffer
		r.WritePrometheus(&buf)
		sc := bufio.NewScanner(&buf)
		for sc.Scan() {
			if f := strings.Fields(sc.Text()); len(f) >= 3 && f[0] == "#" && f[1] == "TYPE" {
				seen[f[2]] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for f := range seen {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}
