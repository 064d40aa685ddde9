// Command terradir-plot renders an experiment TSV (from terradir-exp) as
// an ASCII chart in the terminal.
//
//	terradir-plot results/fig3.tsv                 # all numeric series vs first column
//	terradir-plot -x t -y unif,uzipf1.50 results/fig3.tsv
//	terradir-plot -bars -label stream -y BCR results/fig5.tsv
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"terradir/internal/plot"
)

func main() {
	var (
		xCol   = flag.String("x", "", "x-axis column (default: first column)")
		yCols  = flag.String("y", "", "comma-separated series columns (default: all numeric)")
		bars   = flag.Bool("bars", false, "render a horizontal bar chart instead of lines")
		label  = flag.String("label", "", "label column for -bars (default: first column)")
		width  = flag.Int("w", 72, "plot width in characters")
		height = flag.Int("h", 18, "plot height in characters")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: terradir-plot [flags] <file.tsv>")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	t, err := plot.ReadTSV(f)
	if err != nil {
		fatal(err)
	}
	if *xCol == "" && len(t.Header) > 0 {
		*xCol = t.Header[0]
	}
	var names []string
	if *yCols != "" {
		names = strings.Split(*yCols, ",")
	} else {
		names = t.NumericColumns(*xCol)
	}
	if len(names) == 0 {
		fatal(fmt.Errorf("no numeric series to plot in %s", flag.Arg(0)))
	}

	if *bars {
		lcol := *label
		if lcol == "" {
			lcol = t.Header[0]
		}
		labels, err := t.StringColumn(lcol)
		if err != nil {
			fatal(err)
		}
		vals, err := t.NumericColumn(names[0])
		if err != nil {
			fatal(err)
		}
		if err := plot.Bars(os.Stdout, t.Title+" — "+names[0], labels, vals, *width); err != nil {
			fatal(err)
		}
		return
	}

	xs, err := t.NumericColumn(*xCol)
	if err != nil {
		fatal(err)
	}
	series := map[string][]float64{}
	for _, name := range names {
		vals, err := t.NumericColumn(name)
		if err != nil {
			fatal(err)
		}
		series[name] = vals
	}
	if err := plot.Line(os.Stdout, t.Title, xs, names, series, *width, *height); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "terradir-plot: %v\n", err)
	os.Exit(1)
}
