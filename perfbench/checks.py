"""Output checks made apart from the program under test.

Everything here reads the program's output files and the benchmark's
own inputs with nothing but the Python standard library, so a fault in
the program's parsers, formatters or indexes cannot hide itself. The
same functions build the expected serve replies that the load client
(src/pb_load.cpp) compares byte for byte.
"""

import ipaddress
import random
import struct

# The program's own notion of a private address (netbase::IPAddr::
# is_private). Python's ipaddress.is_private is broader (it also
# covers documentation and benchmarking ranges), so it is not used.
_PRIVATE_V4 = [ipaddress.ip_network(n) for n in
               ("10.0.0.0/8", "172.16.0.0/12", "192.168.0.0/16",
                "127.0.0.0/8", "169.254.0.0/16")]
_PRIVATE_V6 = [ipaddress.ip_network(n) for n in ("fc00::/7", "fe80::/10")]


def is_private(addr):
    nets = _PRIVATE_V4 if addr.version == 4 else _PRIVATE_V6
    return any(addr in n for n in nets)


def corpus_hop_addresses(native_text):
    """Distinct hop addresses of a native-format corpus (T|vp|dst|hops),
    as strings. Hops are ttl:addr:type; v6 addresses contain ':'."""
    out = set()
    for line in native_text.splitlines():
        if not line.startswith("T|"):
            continue
        hops = line.split("|", 3)[3]
        if not hops:
            continue
        for hop in hops.split(";"):
            out.add(hop[hop.index(":") + 1:hop.rindex(":")])
    return out


def parse_tsv(text):
    """TSV rows (addr, router_as, conn_as, flags) in file order."""
    rows = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        addr, router_as, conn_as, flags = line.split("\t")
        rows.append((addr, int(router_as), int(conn_as), flags))
    return rows


def check_tsv_addresses(rows, hop_addrs):
    """The TSV holds exactly the distinct non-private hop addresses."""
    want = set()
    for a in hop_addrs:
        ip = ipaddress.ip_address(a)
        if not is_private(ip):
            want.add(ip)
    got = [ipaddress.ip_address(r[0]) for r in rows]
    problems = []
    if len(got) != len(set(got)):
        problems.append("TSV repeats an address")
    missing = want - set(got)
    extra = set(got) - want
    if missing:
        problems.append("%d corpus addresses missing from the TSV, e.g. %s"
                        % (len(missing), min(missing)))
    if extra:
        problems.append("%d TSV addresses not in the corpus, e.g. %s"
                        % (len(extra), min(extra)))
    return problems


def parse_truth(text):
    truth = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            addr, owner = line.split("\t")[:2]
            truth[ipaddress.ip_address(addr)] = int(owner)
    return truth


def router_as_accuracy(rows, truth):
    """Share of TSV addresses held by the ground truth whose router_as
    names the true operator."""
    scored = right = 0
    for addr, router_as, _, _ in rows:
        owner = truth.get(ipaddress.ip_address(addr))
        if owner is None:
            continue
        scored += 1
        right += router_as == owner
    return right / scored if scored else 0.0


def derived_as_links(rows):
    """Sorted distinct (min, max) AS pairs of the TSV's B rows."""
    return sorted({(min(r[1], r[2]), max(r[1], r[2]))
                   for r in rows if "B" in r[3]})


def parse_as_links(text):
    out = []
    for line in text.splitlines():
        if line and not line.startswith("#"):
            a, b = line.split("\t")
            out.append((int(a), int(b)))
    return out


def check_as_links(rows, links_text):
    got = parse_as_links(links_text)
    want = derived_as_links(rows)
    if got == want:
        return []
    return ["AS-links file has %d pairs, the TSV's B rows give %d"
            % (len(got), len(want))]


def parse_alias_sets(text):
    """ITDK nodes file: one list of address strings per node line."""
    sets = []
    for line in text.splitlines():
        if line.startswith("node "):
            sets.append(line.split(":", 1)[1].split())
    return sets


# ---- expected serve replies ------------------------------------------

EXACT, LAST_FIELD, LINE_PREFIX = 0, 1, 2


def _row(r):
    return "%s\t%d\t%d\t%s\n" % r


def alias_groups(rows, alias_sets):
    """Alias group of every TSV address: its set's index in the alias
    file if it is in one, else its own singleton group. Returns
    (address -> group key, group key -> member rows in TSV order)."""
    set_of = {}
    for i, members in enumerate(alias_sets):
        for a in members:
            set_of.setdefault(ipaddress.ip_address(a), i)
    group = {}
    members = {}
    for r in rows:
        key = set_of.get(ipaddress.ip_address(r[0]), r[0])
        group[r[0]] = key
        members.setdefault(key, []).append(r)
    return group, members


def absent_addresses(rows, n, rng):
    """`n` addresses of the map's families that the map does not hold."""
    held = {ipaddress.ip_address(r[0]) for r in rows}
    v6 = any(":" in r[0] for r in rows)
    out = []
    while len(out) < n:
        if v6 and rng.random() < 0.5:
            ip = ipaddress.IPv6Address((0x20010db8 << 96) | rng.getrandbits(64))
        else:
            ip = ipaddress.IPv4Address((100 << 24) | (64 << 16) | rng.getrandbits(16))
        if ip not in held:
            out.append(str(ip))
    return out


def text_mix(rows, links, alias_sets, seed, n=20000):
    """Seeded text queries with their expected replies: mostly single-
    address IFACE, some multi-address IFACE, PREFIX, ROUTER, LINKS and
    COUNT, and a tenth for addresses the map does not hold. Returns a
    list of (kind, request line, expected)."""
    rng = random.Random(seed)
    by_ip = sorted(rows, key=lambda r: _ip_key(r[0]))
    ips = [ipaddress.ip_address(r[0]) for r in by_ip]
    group, members = alias_groups(rows, alias_sets)
    counts = {}
    for r in rows:
        counts[r[1]] = counts.get(r[1], 0) + 1
    link_ases = sorted({a for pair in links for a in pair})
    links_of = {}
    for pair in links:
        for a in set(pair):
            links_of.setdefault(a, []).append(pair)
    absent = absent_addresses(rows, n // 10 + 1, rng)
    out = []
    for i in range(n):
        u = rng.random()
        if u < 0.10:
            out.append((LINE_PREFIX, "IFACE %s\n" % absent[i % len(absent)],
                        "ERR\tnot-found"))
        elif u < 0.80:
            r = rng.choice(rows)
            out.append((EXACT, "IFACE %s\n" % r[0], _row(r)))
        elif u < 0.86:
            pick = [rng.choice(rows) for _ in range(rng.randint(2, 4))]
            out.append((EXACT, "IFACE %s\n" % " ".join(r[0] for r in pick),
                        "".join(_row(r) for r in pick)))
        elif u < 0.91:
            j = rng.randrange(len(by_ip))
            net = ipaddress.ip_network(
                "%s/%d" % (ips[j], 28 if ips[j].version == 4 else 124), strict=False)
            inside = _inside(by_ip, ips, net, j)
            out.append((EXACT, "PREFIX %s\n" % net,
                        "".join(_row(r) for r in inside) + "END\t%d\n" % len(inside)))
        elif u < 0.95:
            r = rng.choice(rows)
            mem = members[group[r[0]]]
            out.append((EXACT, "ROUTER %s\n" % r[0],
                        "".join(_row(m) for m in mem) + "END\t%d\n" % len(mem)))
        elif u < 0.98 and link_ases:
            a = rng.choice(link_ases)
            ls = links_of[a]
            out.append((EXACT, "LINKS %d\n" % a,
                        "".join("%d\t%d\n" % p for p in ls) + "END\t%d\n" % len(ls)))
        else:
            a = rng.choice(rows)[1]
            out.append((LAST_FIELD, "COUNT %d\n" % a, str(counts[a])))
    return out


def _ip_key(addr):
    ip = ipaddress.ip_address(addr)
    return ip.version, int(ip)


def _inside(by_ip, ips, net, j):
    """Rows of the address-sorted table inside `net`, which contains
    ips[j]: a contiguous run around j."""
    lo = j
    while lo > 0 and ips[lo - 1] in net:
        lo -= 1
    hi = j
    while hi + 1 < len(ips) and ips[hi + 1] in net:
        hi += 1
    return by_ip[lo:hi + 1]


def write_text_mix(path, mix):
    with open(path, "wb") as f:
        for kind, req, exp in mix:
            rb, eb = req.encode(), exp.encode()
            f.write(struct.pack("<BI", kind, len(rb)) + rb
                    + struct.pack("<I", len(eb)) + eb)


FOUND, BORDER, IXP, ECHO_ONLY = 1, 2, 4, 8


def bulk_flags(flags):
    return (FOUND | (BORDER if "B" in flags else 0) | (IXP if "X" in flags else 0)
            | (ECHO_ONLY if "E" in flags else 0))


def bulk_mix(rows, alias_sets, seed, n=65536):
    """Seeded BULK addresses, a tenth absent, with expected records:
    (address, router_as, conn_as, flags, alias group or None)."""
    rng = random.Random(seed + 1)
    group, _ = alias_groups(rows, alias_sets)
    dense = {}
    absent = absent_addresses(rows, n // 10 + 1, rng)
    out = []
    for i in range(n):
        if rng.random() < 0.10:
            out.append((absent[i % len(absent)], 0, 0, 0, None))
        else:
            r = rng.choice(rows)
            g = dense.setdefault(group[r[0]], len(dense))
            out.append((r[0], r[1], r[2], bulk_flags(r[3]), g))
    return out


def write_bulk_mix(path, mix):
    with open(path, "wb") as f:
        f.write(struct.pack("<I", len(mix)))
        for addr, router_as, conn_as, flags, g in mix:
            ip = ipaddress.ip_address(addr)
            packed = ip.packed.ljust(16, b"\0")
            f.write(struct.pack("<B", ip.version) + packed
                    + struct.pack("<IIBI", router_as, conn_as, flags,
                                  0xFFFFFFFF if g is None else g))
