"""Tiny hand-rolled SVG writer for log-log scatter plots with an envelope
line and a slope annotation (no plotting dependency)."""


def _fmt(v):
    return f"{v:.6g}"


def scatter_svg(points, envelope, title, annotation):
    """points and envelope are (x, y) floats (already in log coordinates),
    drawn on a 640 x 440 canvas with a 56-unit margin. The points span an
    x range, as the records of a fit span 1.5 decades of r."""
    width, height, margin = 640, 440, 56
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if y1 == y0:
        y1 = y0 + 1
    padx = 0.06 * (x1 - x0)
    pady = 0.06 * (y1 - y0)
    x0, x1 = x0 - padx, x1 + padx
    y0, y1 = y0 - pady, y1 + pady

    def sx(x):
        return margin + (x - x0) / (x1 - x0) * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y0) / (y1 - y0) * (height - 2 * margin)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
           f'height="{height}" viewBox="0 0 {width} {height}">',
           f'<rect width="{width}" height="{height}" fill="white"/>',
           f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}"'
           f' y2="{height - margin}" stroke="black"/>',
           f'<line x1="{margin}" y1="{margin}" x2="{margin}"'
           f' y2="{height - margin}" stroke="black"/>']
    for i in range(5):
        xv = x0 + (x1 - x0) * i / 4
        yv = y0 + (y1 - y0) * i / 4
        out.append(f'<text x="{_fmt(sx(xv))}" y="{height - margin + 18}" '
                   f'font-size="11" text-anchor="middle">{_fmt(xv)}</text>')
        out.append(f'<text x="{margin - 6}" y="{_fmt(sy(yv) + 4)}" '
                   f'font-size="11" text-anchor="end">{_fmt(yv)}</text>')
    out.append(f'<text x="{width // 2}" y="{height - 12}" font-size="12" '
               f'text-anchor="middle">-log r</text>')
    out.append(f'<text x="14" y="{height // 2}" font-size="12" '
               f'text-anchor="middle" transform="rotate(-90 14 {height // 2})"'
               f'>log T</text>')
    out.append(f'<text x="{width // 2}" y="22" font-size="14" '
               f'text-anchor="middle">{title}</text>')
    pts = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in envelope)
    out.append(f'<polyline points="{pts}" fill="none" stroke="#c02020" '
               f'stroke-width="1.5"/>')
    for x, y in points:
        out.append(f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="3.5" '
                   f'fill="#2040c0" fill-opacity="0.8"/>')
    out.append(f'<text x="{width - margin}" y="{margin - 8}" '
               f'font-size="12" text-anchor="end">{annotation}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
