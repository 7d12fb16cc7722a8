package main

import (
	"bufio"
	"context"
	_ "embed"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/campaign"
	"repro/internal/core"
)

// expectedTSV is the per-cell expected-outcome table, recorded with
// -record from a revision whose outcomes are known good.
//
//go:embed expected.tsv
var expectedTSV string

// outcome is what the benchmark checks about one engagement: the paper's
// verdict (differentiated, deployed technique) and its cost (rounds, bytes).
type outcome struct {
	Differentiated bool
	Technique      string // "-" when nothing is deployed
	Rounds         int
	Bytes          int64
}

func (o outcome) String() string {
	return fmt.Sprintf("differentiated=%v technique=%s rounds=%d bytes=%d",
		o.Differentiated, o.Technique, o.Rounds, o.Bytes)
}

func outcomeOf(rep *core.Report) outcome {
	o := outcome{Technique: "-", Rounds: rep.TotalRounds, Bytes: rep.TotalBytes}
	if rep.Detection != nil {
		o.Differentiated = rep.Detection.Differentiated
	}
	if rep.Deployed != nil {
		o.Technique = rep.Deployed.Technique.ID
	}
	return o
}

// table maps cell keys to expected outcomes.
type table map[string]outcome

func parseTable(r io.Reader) (table, error) {
	t := table{}
	sc := bufio.NewScanner(r)
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		f := strings.Split(text, "\t")
		if len(f) != 5 {
			return nil, fmt.Errorf("expected.tsv:%d: want 5 tab-separated fields, have %d", line, len(f))
		}
		diff, err1 := strconv.ParseBool(f[1])
		rounds, err2 := strconv.Atoi(f[3])
		bytes, err3 := strconv.ParseInt(f[4], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("expected.tsv:%d: malformed row %q", line, text)
		}
		t[f[0]] = outcome{Differentiated: diff, Technique: f[2], Rounds: rounds, Bytes: bytes}
	}
	return t, sc.Err()
}

// check compares an engagement's outcome with the table and describes
// any difference field by field; "" means it matches.
func (t table) check(c cell, got outcome) string {
	want, ok := t[c.key()]
	if !ok {
		return fmt.Sprintf("%s: no expected outcome recorded (got %s)", c.key(), got)
	}
	if got == want {
		return ""
	}
	var diffs []string
	if got.Differentiated != want.Differentiated {
		diffs = append(diffs, fmt.Sprintf("differentiated %v, want %v", got.Differentiated, want.Differentiated))
	}
	if got.Technique != want.Technique {
		diffs = append(diffs, fmt.Sprintf("technique %s, want %s", got.Technique, want.Technique))
	}
	if got.Rounds != want.Rounds {
		diffs = append(diffs, fmt.Sprintf("rounds %d, want %d", got.Rounds, want.Rounds))
	}
	if got.Bytes != want.Bytes {
		diffs = append(diffs, fmt.Sprintf("bytes %d, want %d", got.Bytes, want.Bytes))
	}
	return c.key() + ": " + strings.Join(diffs, "; ")
}

// checkAnswer compares the verdict part of a daemon answer, which carries
// no rounds or bytes.
func (t table) checkAnswer(c cell, diff bool, technique string) string {
	want, ok := t[c.key()]
	if !ok {
		return fmt.Sprintf("%s: no expected outcome recorded", c.key())
	}
	if technique == "" {
		technique = "-"
	}
	if diff == want.Differentiated && technique == want.Technique {
		return ""
	}
	return fmt.Sprintf("%s: answer differentiated=%v technique=%s, want differentiated=%v technique=%s",
		c.key(), diff, technique, want.Differentiated, want.Technique)
}

// tableCells lists every cell any workload can run, for -record.
func tableCells() []cell {
	var out []cell
	for _, w := range []string{"sweep-diff", "sweep-null", "sweep-impaired"} {
		out = append(out, sweepCells(w)...)
	}
	out = append(out, warmCells()...)
	out = append(out, coldPool(false)...)
	out = append(out, coldPool(true)...)
	seen := map[string]bool{}
	uniq := out[:0]
	for _, c := range out {
		if !seen[c.key()] {
			seen[c.key()] = true
			uniq = append(uniq, c)
		}
	}
	return uniq
}

// record runs every table cell with campaign.DefaultEngage and writes the
// table. It is how expected.tsv was made.
func record(ctx context.Context, w io.Writer, workers int) error {
	engs, err := expand(tableCells(), []int64{1})
	if err != nil {
		return err
	}
	r := &campaign.Runner{Workers: workers}
	rows := make([]string, 0, len(engs))
	for _, res := range r.RunSubset(ctx, engs) {
		if res.Status != campaign.StatusOK {
			return fmt.Errorf("%s: %s", res.Engagement.Key(), res.Err)
		}
		o := outcomeOf(res.Report)
		rows = append(rows, fmt.Sprintf("%s\t%v\t%s\t%d\t%d",
			cellOf(res.Engagement).key(), o.Differentiated, o.Technique, o.Rounds, o.Bytes))
	}
	sort.Strings(rows)
	fmt.Fprintln(w, "# key\tdifferentiated\ttechnique\trounds\tbytes")
	for _, row := range rows {
		fmt.Fprintln(w, row)
	}
	return nil
}
