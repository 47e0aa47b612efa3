"""One benchmark operation in a fresh interpreter.

Usage: python3 bench/child.py '<op json>'

The op names the checkout's `src` directory, the report path, the result
path, whether to trace, and either a `specgraph` argv (`"cli"`), an
edge-list file whose automorphisms to count (`"aut"`), or nothing
(`"setup"`: import only). The child imports specgraph, numpy and
jsonschema, notes the time (`ready`), runs the op and writes a JSON result:
ready time, exit code, error text, layer metrics when traced, and the
environment when asked.
"""

import json
import sys
import time
import traceback


def main() -> int:
    op = json.loads(sys.argv[1])
    sys.path.insert(0, op["src"])
    import jsonschema  # noqa: F401
    import numpy
    import specgraph.cli
    from specgraph import graph_core

    ready = time.perf_counter()
    result = {"ready": ready, "rc": None, "error": None, "layers": None}
    if not specgraph.__file__.startswith(op["src"]):
        result["error"] = f"specgraph imported from {specgraph.__file__}"
    else:
        tracer = None
        if op["trace"]:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        try:
            if op["kind"] == "setup":
                result["rc"] = 0
            elif op["kind"] == "cli":
                result["rc"] = specgraph.cli.main(op["argv"])
            else:
                with open(op["graph"]) as fh:
                    g = graph_core.parse_edge_list(fh.read(), name=op["name"])
                count = graph_core.automorphism_count(g)
                with open(op["report"], "w") as fh:
                    fh.write(json.dumps({"graph": op["name"], "automorphisms": count},
                                        sort_keys=True) + "\n")
                result["rc"] = 0
        except Exception:
            result["error"] = traceback.format_exc(limit=-3)
        if tracer is not None:
            result["layers"] = tracer.summarise()
    if op.get("env"):
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        result["env"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                         "blas": f"{blas.get('name')} {blas.get('version')}"}
    with open(op["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
