// Command dtabench regenerates every table and figure of the paper's
// evaluation (§7) plus the §3 integrated-vs-staged comparison and the
// ablation studies called out in DESIGN.md, printing each in the paper's
// row/column layout. Pass -quick for a fast reduced-scale run and -only to
// run one experiment. Timing and regression gating belong to the
// repository benchmark (bench/), not to this command.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "run at reduced scale")
	only := flag.String("only", "", "run a single experiment: table1, table2, sec72, figure3, table3, sec75, figure45, sec3, ablations")
	flag.Parse()

	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}

	run := func(name string, fn func() error) {
		if *only != "" && *only != name {
			return
		}
		start := time.Now()
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "dtabench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("(%s completed in %s)\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	run("table1", func() error {
		fmt.Println(experiments.Table1String())
		return nil
	})
	run("table2", func() error {
		rows, err := experiments.Table2(cfg)
		if err != nil {
			return err
		}
		fmt.Println(experiments.Table2String(rows))
		return nil
	})
	run("sec72", func() error {
		res, err := experiments.Sec72(cfg)
		if err != nil {
			return err
		}
		fmt.Println(res.String())
		return nil
	})
	run("figure3", func() error {
		rows, err := experiments.Figure3(cfg)
		if err != nil {
			return err
		}
		fmt.Println(experiments.Figure3String(rows))
		return nil
	})
	run("table3", func() error {
		rows, err := experiments.Table3(cfg)
		if err != nil {
			return err
		}
		fmt.Println(experiments.Table3String(rows))
		return nil
	})
	run("sec75", func() error {
		rows, err := experiments.Sec75(cfg)
		if err != nil {
			return err
		}
		fmt.Println(experiments.Sec75String(rows))
		return nil
	})
	run("figure45", func() error {
		rows, err := experiments.Figure45(cfg)
		if err != nil {
			return err
		}
		fmt.Println(experiments.Figure45String(rows))
		return nil
	})
	run("sec3", func() error {
		res, err := experiments.Sec3IntegratedVsStaged(cfg)
		if err != nil {
			return err
		}
		fmt.Println(res.String())
		return nil
	})
	run("ablations", func() error {
		for _, fn := range []func(experiments.Config) (*experiments.AblationRow, error){
			experiments.AblationColumnGroupRestriction,
			experiments.AblationMerging,
			experiments.AblationLazyAlignment,
			experiments.AblationGreedySeed,
		} {
			row, err := fn(cfg)
			if err != nil {
				return err
			}
			fmt.Println(experiments.AblationString(row))
		}
		return nil
	})
}
