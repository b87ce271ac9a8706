"""Shared rendering helper for the benchmark harnesses."""


def print_table(title, header, rows):
    """Uniform table rendering for the reproduced figures/tables."""
    print()
    print(f"=== {title} ===")
    widths = [max(len(str(header[i])),
                  max((len(str(r[i])) for r in rows), default=0))
              for i in range(len(header))]
    line = "  ".join(str(h).ljust(w) for h, w in zip(header, widths))
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
