"""Component timings of a candidate reference workload (scratch analysis)."""
import hashlib, json, os, socket, statistics, time
from pathlib import Path
import numpy as np


def c_interp(d):
    counts = {}
    for i in range(60_000):
        counts[i % 997] = counts.get(i % 997, 0) + i
    sorted(f"{k}:{v}" for k, v in counts.items())


def c_json(d):
    doc = {"rows": [{"name": f"row{i}", "values": list(range(i % 16)), "x": i * 0.5}
                    for i in range(2_500)]}
    json.loads(json.dumps(doc, sort_keys=True))


def c_numpy(d):
    values = np.random.default_rng(7).standard_normal(150_000)
    hashlib.blake2b(np.sort(values).tobytes(), digest_size=16).digest()


def c_file(d):
    p = d / "ref.bin"
    p.write_bytes(b"x" * 1_200_000); p.read_bytes(); os.remove(p)


def c_meta(d):
    names = [d / f"ref-{i}.json" for i in range(50)]
    for n in names:
        t = n.with_suffix(".tmp"); t.write_text("y" * 2000); os.replace(t, n)
    for n in names:
        n.read_text(); os.remove(n)


def c_ipc(d):
    a, b = socket.socketpair()
    pid = os.fork()
    if pid == 0:
        a.close()
        while True:
            m = b.recv(4096)
            if not m:
                os._exit(0)
            b.sendall(m)
    b.close()
    for _ in range(200):
        a.sendall(b"z" * 256); a.recv(4096)
    a.close(); os.waitpid(pid, 0)


COMPONENTS = {"interp": c_interp, "json": c_json, "numpy": c_numpy, "file": c_file,
              "meta": c_meta, "ipc": c_ipc}


def components(d: Path, passes: int = 3) -> dict:
    out = {}
    for name, f in COMPONENTS.items():
        ts = []
        for _ in range(passes):
            t0 = time.perf_counter(); f(d); ts.append(time.perf_counter() - t0)
        out[name] = statistics.median(ts)
    return out


if __name__ == "__main__":
    for _ in range(5):
        print({k: round(v * 1e3, 1) for k, v in components(Path("/root/repo/.perfbench")).items()})
