"""One `branchcover verify` job in its own process, timed by phase.

    python bench/job.py SPEC --out REPORT [VERIFY FLAGS] [--spans FILE --job N]

Runs `branchcover.cli.main(["verify", SPEC, ...])` and exits with its
code.  `verify_branched` and `verify_unbranched` are wrapped where
`branchcover.cli` binds them, only to take timestamps; the command
itself is the library's own.  On stdout it prints one JSON object with
the phase times of this process:

    setup_s   start of this script to the call of verify_branched /
              verify_unbranched: import branchcover, read, parse_spec_text,
              load_spec, cover_spec()
    solve_s   verify_branched / verify_unbranched
    emit_s    from their return to the end of the command: the report
              text and the write

If the command never calls either function through `branchcover.cli`,
the phases cannot be split, the times are null and the job counts as
failed.  With --spans the library's public functions are wrapped first
(see tracing.py) and the spans are written to FILE after the report.
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import branchcover.cli as cli  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--spans")
    ap.add_argument("--job", type=int, default=0)
    args, verify_argv = ap.parse_known_args(argv)

    tracer = None
    if args.spans:
        from tracing import Tracer
        tracer = Tracer(args.job)
        tracer.install()

    marks = {}
    close_emit = []

    def timed(fn):
        def wrapped(*a, **kw):
            marks["setup"] = time.perf_counter()
            result = fn(*a, **kw)
            marks["solve"] = time.perf_counter()
            if tracer:
                close_emit.append(tracer.span("cli.emit", "cli.emit"))
            return result
        return wrapped

    for name in ("verify_branched", "verify_unbranched"):
        if hasattr(cli, name):
            setattr(cli, name, timed(getattr(cli, name)))

    code = cli.main(["verify", *verify_argv])
    t_end = time.perf_counter()
    for close in close_emit:
        close()

    if "solve" in marks:
        times = {"setup_s": marks["setup"] - T0, "solve_s": marks["solve"] - marks["setup"],
                 "emit_s": t_end - marks["solve"]}
    else:
        times = {"setup_s": None, "solve_s": None, "emit_s": None}
    print(json.dumps(times))
    if tracer:
        tracer.write(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
