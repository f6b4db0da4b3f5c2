package obs

import (
	"io"
	"log/slog"
	"os"
	"sync/atomic"
)

// level is the shared dynamic level for loggers built by NewLogger; quiet
// mode raises it so progress chatter disappears while warnings survive.
var level slog.LevelVar

// current holds the process logger returned by Logger.
var current atomic.Pointer[slog.Logger]

func init() {
	current.Store(NewLogger(os.Stderr, slog.LevelInfo, false))
}

// NewLogger builds a structured logger writing to w. json selects the
// JSON handler (one object per line, for log shippers) over the
// human-oriented text handler. The returned logger shares the package
// level, so SetQuiet applies to it.
func NewLogger(w io.Writer, lvl slog.Level, json bool) *slog.Logger {
	level.Set(lvl)
	opts := &slog.HandlerOptions{Level: &level}
	var h slog.Handler
	if json {
		h = slog.NewJSONHandler(w, opts)
	} else {
		h = slog.NewTextHandler(w, opts)
	}
	return slog.New(h)
}

// Logger returns the process logger. Instrumented packages and binaries
// log through it so -quiet and handler choices apply everywhere.
func Logger() *slog.Logger { return current.Load() }

// SetLogger replaces the process logger.
func SetLogger(l *slog.Logger) {
	if l != nil {
		current.Store(l)
	}
}

// SetQuiet suppresses Info/Debug output, keeping warnings and errors.
func SetQuiet() { level.Set(slog.LevelWarn) }
