package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"gpushare/internal/interference"
	"gpushare/internal/obs"
)

// runExplain implements "gpusched explain": query a flight-recorder
// dump — written with -flight-out or fetched from GET /debug/flight —
// for the decision trail of one arrival or one tenant, and print it one
// line per record. The trail is read back from the dump, not re-derived,
// so the answer is exactly what the dispatcher decided, byte for byte at
// any shard count.
//
//	gpusched explain -flight flight.json -seq 42
//	gpusched explain -flight flight.json -tenant prod -last 20
func runExplain(args []string, w io.Writer) error {
	// Flag errors and usage go to stderr, as in every other form: w is
	// the trail a script reads.
	fs := flag.NewFlagSet("explain", flag.ContinueOnError)
	var (
		file   = fs.String("flight", "", `flight dump JSON (from -flight-out or /debug/flight); "-" reads stdin`)
		seq    = fs.Int64("seq", -1, "only records for this arrival/gang sequence number")
		tenant = fs.String("tenant", "", "only records for this tenant")
		last   = fs.Int("last", 0, "only the last N matching records")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *file == "" {
		return fmt.Errorf("explain needs -flight FILE (write one with -flight-out, or save GET /debug/flight)")
	}
	var r io.Reader = os.Stdin
	if *file != "-" {
		f, err := os.Open(*file)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	var dump obs.FlightDump
	if err := json.NewDecoder(r).Decode(&dump); err != nil {
		return fmt.Errorf("parsing %s: %w", *file, err)
	}
	return explainDump(w, &dump.Flight, *seq, *tenant, *last)
}

// explainDump filters and renders one flight snapshot.
func explainDump(w io.Writer, snap *obs.FlightSnapshot, seq int64, tenant string, last int) error {
	matched := make([]obs.FlightRecord, 0, len(snap.Records))
	for _, r := range snap.Records {
		if seq >= 0 && r.Seq != seq {
			continue
		}
		if tenant != "" && r.Tenant != tenant {
			continue
		}
		matched = append(matched, r)
	}
	if last > 0 && len(matched) > last {
		matched = matched[len(matched)-last:]
	}
	if _, err := fmt.Fprintf(w, "flight window %d of %d decisions (capacity %d, spilled %d, dropped %d); %d match\n",
		len(snap.Records), snap.Total, snap.Capacity, snap.Spilled, snap.Dropped, len(matched)); err != nil {
		return err
	}
	for _, r := range matched {
		if _, err := fmt.Fprintln(w, formatFlightRecord(r)); err != nil {
			return err
		}
	}
	if seq >= 0 && len(matched) == 0 {
		return fmt.Errorf("seq %d is not in the recorded window (total %d decisions, window %d) — raise -flight-cap or read the JSONL spill",
			seq, snap.Total, len(snap.Records))
	}
	return nil
}

// formatFlightRecord renders one decision-trail line. Scan records
// name each rule that fired through interference.RuleMask, so the text
// trail uses the same rule names as the dispatcher.
func formatFlightRecord(r obs.FlightRecord) string {
	var b strings.Builder
	fmt.Fprintf(&b, "seq %6d  @%14.6fs  %-8s", r.Seq, float64(r.AtNS)/1e9, r.Kind)
	if r.Tenant != "" {
		fmt.Fprintf(&b, "  tenant=%s", r.Tenant)
	}
	if r.Workflow != "" {
		fmt.Fprintf(&b, "  wf=%s", r.Workflow)
	}
	if r.Node != "" {
		fmt.Fprintf(&b, "  node=%s", r.Node)
	}
	if r.GPU >= 0 {
		fmt.Fprintf(&b, "  gpu=%d", r.GPU)
	}
	switch {
	case r.Kind == obs.FlightScan:
		writeScanSummary(&b, r)
	case r.Kind == obs.FlightHold && r.Clients > 0:
		// A skipped retry counts the changed GPUs it re-checked.
		fmt.Fprintf(&b, "  rechecked=%d", r.Clients)
	case r.Clients > 0:
		fmt.Fprintf(&b, "  clients=%d", r.Clients)
	}
	if r.WaitNS > 0 {
		fmt.Fprintf(&b, "  wait=%.3fs", float64(r.WaitNS)/1e9)
	}
	if r.Detail != "" {
		fmt.Fprintf(&b, "  %s", r.Detail)
	}
	return b.String()
}

// writeScanSummary renders a scan record's counts: no-fit when no GPU
// admitted, the index nodes visited, and for each rule that fired the
// number of GPUs it rejected, pruned index ranges included.
func writeScanSummary(b *strings.Builder, r obs.FlightRecord) {
	if r.GPU < 0 {
		b.WriteString("  no-fit")
	}
	fmt.Fprintf(b, "  visited=%d", r.Clients)
	counts := [...]int64{r.SMExcessMilli, r.BWExcessMilli, r.MemExcessMiB, int64(r.CapSkips)}
	sep := "  rejected "
	for i, n := range counts {
		rule := interference.RuleMask(1 << i)
		if interference.RuleMask(r.Rules)&rule == 0 {
			continue
		}
		fmt.Fprintf(b, "%s%s=%d", sep, rule, n)
		sep = " "
	}
}

// writeFlightDump saves the hub's decision trail plus metrics snapshot
// as the explain subcommand's input format.
func writeFlightDump(path string, hub *obs.Hub) error {
	return writeFile(path, hub.Dump().WriteJSON)
}
