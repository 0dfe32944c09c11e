package baseline

import (
	"os"
	"time"

	"sqlcm/internal/catalog"
	"sqlcm/internal/engine"
	"sqlcm/internal/exec"
	"sqlcm/internal/sqltypes"
)

// QueryLogger implements the Query_logging baseline: every committed query
// is synchronously written to a reporting table inside the server (push
// without filtering, like event logging), and the final top-k is computed
// by a SQL query over the table.
type QueryLogger struct {
	engine.NopHooks
	eng   *engine.Engine
	table string
	// Sync, when set, receives every logged row as one unbuffered write,
	// modelling the paper's "we force synchronous writes" setup for this
	// baseline.
	Sync *os.File
}

// NewQueryLogger creates the reporting table and returns the logger.
// Install it with eng.SetHooks.
func NewQueryLogger(eng *engine.Engine, table string) (*QueryLogger, error) {
	err := eng.CreateTable(table, []catalog.Column{
		{Name: "query_text", Type: sqltypes.KindString},
		{Name: "duration", Type: sqltypes.KindFloat},
		{Name: "logged_at", Type: sqltypes.KindTime},
	})
	if err != nil {
		return nil, err
	}
	return &QueryLogger{eng: eng, table: table}, nil
}

// QueryCommit implements engine.Hooks: the synchronous write the paper
// forces for this baseline ("monitoring and reporting is not integrated
// ... we force synchronous writes").
func (l *QueryLogger) QueryCommit(q *engine.QueryInfo, dur time.Duration) {
	row := []sqltypes.Value{
		sqltypes.NewString(q.Text),
		sqltypes.NewFloat(dur.Seconds()),
		sqltypes.NewTime(time.Now()),
	}
	// A hook has no caller to report a failure to; a failed write costs
	// the baseline its accuracy, which the experiment measures.
	_ = l.eng.InsertRowDirect(l.table, row)
	if l.Sync != nil {
		_, _ = l.Sync.Write(exec.EncodeRow(row))
	}
}

// TopK computes the final result by SQL post-processing over the
// reporting table.
func (l *QueryLogger) TopK(k int) ([]TopEntry, error) {
	sess := l.eng.NewSession("monitor", "query_logging")
	res, err := sess.Exec(
		"SELECT query_text, MAX(duration) AS d FROM "+l.table+
			" GROUP BY query_text ORDER BY d DESC LIMIT "+itoa(k), nil)
	if err != nil {
		return nil, err
	}
	out := make([]TopEntry, 0, len(res.Rows))
	for _, r := range res.Rows {
		out = append(out, TopEntry{
			Text:     r[0].Str(),
			Duration: time.Duration(r[1].Float() * float64(time.Second)),
		})
	}
	return out, nil
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
