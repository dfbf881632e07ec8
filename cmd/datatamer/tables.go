package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"strings"

	datatamer "repro"
)

// printer renders the paper's tables and figures from one pipeline run.
// stages is Fig. 1's stage report, passed apart from tm because its
// durations are wall time: the golden test hands in the same rows with the
// durations zeroed.
type printer struct {
	w      *bufio.Writer
	tm     *datatamer.Tamer
	stages []datatamer.StageReport
}

// experiments lists the -exp values in the order "all" prints them.
var experiments = []struct {
	name, title string
	print       func(*printer, context.Context) error
}{
	{"table1", "TABLE I: SEMI-STRUCTURED SHARDED WEB-INSTANCE COLLECTION STATISTICS", (*printer).tableI},
	{"table2", "TABLE II: WEB-ENTITIES COLLECTION STATISTICS", (*printer).tableII},
	{"table3", "TABLE III: STATISTICS BY ENTITY TYPE IN WEB-ENTITIES", (*printer).tableIII},
	{"table4", "TABLE IV: TOP 10 MOST DISCUSSED AWARD-WINNING MOVIES/SHOWS FROM WEB-TEXT", (*printer).tableIV},
	{"table5", `TABLE V: QUERY RESULTS FOR THE "MATILDA" BROADWAY SHOW FROM WEB-TEXT`, (*printer).tableV},
	{"table6", "TABLE VI: ENRICHED QUERY RESULTS FROM WEB-TEXT AND FUSION TABLES", (*printer).tableVI},
	{"fig1", "FIG. 1: EXTENDED DATA TAMER PIPELINE (stage report)", (*printer).fig1},
	{"fig2", "FIG. 2: SCHEMA INTEGRATION — GLOBAL SCHEMA INITIALIZATION (first source)", (*printer).fig2},
	{"fig3", "FIG. 3: SCHEMA INTEGRATION — STRUCTURED DATA VS GLOBAL SCHEMA (last source)", (*printer).fig3},
	{"classifier", "SECTION IV: DEDUP/CLEANING CLASSIFIER — 10-FOLD CROSS-VALIDATION", (*printer).classifier},
}

// printTables writes the experiment named exp ("all" for every one) to w
// in the paper's formats.
func printTables(ctx context.Context, w io.Writer, tm *datatamer.Tamer, stages []datatamer.StageReport, exp string) error {
	p := &printer{w: bufio.NewWriter(w), tm: tm, stages: stages}
	known := false
	for _, e := range experiments {
		if exp != "all" && exp != e.name {
			continue
		}
		known = true
		fmt.Fprintf(p.w, "\n=== %s ===\n", e.title)
		if err := e.print(p, ctx); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
	}
	if !known {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return p.w.Flush()
}

func (p *printer) tableI(context.Context) error {
	fmt.Fprintln(p.w, p.tm.InstanceStats().FormatShell())
	return nil
}

func (p *printer) tableII(context.Context) error {
	fmt.Fprintln(p.w, p.tm.EntityStats().FormatShell())
	return nil
}

func (p *printer) tableIII(ctx context.Context) error {
	rows, err := p.tm.TypeCounts(ctx)
	if err != nil {
		return err
	}
	const rule = "+------------------+----------+"
	fmt.Fprintln(p.w, rule)
	fmt.Fprintf(p.w, "| %-16s | %8s |\n", "type", "cnt")
	fmt.Fprintln(p.w, rule)
	for _, row := range rows {
		fmt.Fprintf(p.w, "| %-16s | %8d |\n", row.Type, row.Count)
	}
	fmt.Fprintln(p.w, rule)
	return nil
}

func (p *printer) tableIV(ctx context.Context) error {
	top, err := p.tm.TopDiscussed(ctx, 10)
	if err != nil {
		return err
	}
	fmt.Fprintln(p.w, "MOVIE/SHOW")
	for _, d := range top {
		fmt.Fprintf(p.w, "%q  (mentions: %d)\n", d.Name, d.Mentions)
	}
	return nil
}

func (p *printer) tableV(ctx context.Context) error {
	web, err := p.tm.QueryWebText(ctx, "Matilda")
	if err != nil {
		return err
	}
	fmt.Fprint(p.w, datatamer.FormatKV(web, []string{"SHOW_NAME", "TEXT_FEED"}))
	return nil
}

func (p *printer) tableVI(ctx context.Context) error {
	fused, err := p.tm.QueryFused(ctx, "Matilda")
	if err != nil {
		return err
	}
	fmt.Fprint(p.w, datatamer.FormatKV(fused, datatamer.TableVIOrder))
	return nil
}

func (p *printer) fig1(ctx context.Context) error {
	fmt.Fprintf(p.w, "%-20s %10s %14s\n", "STAGE", "ITEMS", "DURATION")
	for _, s := range p.stages {
		fmt.Fprintf(p.w, "%-20s %10d %14s\n", s.Stage, s.Items, s.Duration.Round(1000))
	}
	fmt.Fprintf(p.w, "global schema: %d attributes; fused records: %d\n",
		p.tm.SchemaLen(), len(p.tm.FusedRecords()))
	cov, err := p.tm.FusionCoverage(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintln(p.w, "\nenrichment coverage of the fused table:")
	for _, c := range cov {
		fmt.Fprintf(p.w, "  %-16s %3d/%3d (%.0f%%)\n", c.Attr, c.Filled, c.Total, c.Fraction()*100)
	}
	cheapest, err := p.tm.CheapestShows(ctx, 5)
	if err != nil {
		return err
	}
	fmt.Fprintln(p.w, "\ncheapest fused shows (the demo's best-price query):")
	for i, s := range cheapest {
		fmt.Fprintf(p.w, "  %d. %-28s %s\n", i+1, s.Show, s.Raw)
	}
	return nil
}

func (p *printer) fig2(context.Context) error {
	if reps := p.tm.MatchReports(); len(reps) > 0 {
		fmt.Fprint(p.w, reps[0].FormatReport())
	}
	return nil
}

func (p *printer) fig3(context.Context) error {
	if reps := p.tm.MatchReports(); len(reps) > 0 {
		fmt.Fprint(p.w, reps[len(reps)-1].FormatReport())
	}
	return nil
}

func (p *printer) classifier(ctx context.Context) error {
	fmt.Fprintf(p.w, "%-12s %10s %10s %10s\n", "ENTITY TYPE", "PRECISION", "RECALL", "F1")
	for _, typ := range datatamer.ClassifierTypes {
		res, err := p.tm.ClassifierCV(ctx, typ, 600)
		if err != nil {
			return err
		}
		fmt.Fprintf(p.w, "%-12s %9.1f%% %9.1f%% %9.1f%%\n",
			string(typ), res.MeanPrecision()*100, res.MeanRecall()*100, res.MeanF1()*100)
	}
	fmt.Fprintln(p.w, strings.TrimSpace(`
paper reports 89/90% precision/recall by 10-fold cross-validation on
several entity types; the synthetic pair corpus is tuned to the same band.`))
	return nil
}
