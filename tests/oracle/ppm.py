"""The plain PPM (P3) writer one pixel at a time, through Python ints and
joined strings, as the package wrote it before its digit table."""

import numpy as np


def write_ppm(path, rgb):
    img = np.asarray(rgb)
    if img.ndim != 3 or img.shape[2] != 3 or int(img.max(initial=0)) > 255:
        raise ValueError("need an (h, w, 3) image with values <= 255")
    lines = ["P3", "%d %d" % (img.shape[1], img.shape[0]), "255"]
    for row in img.reshape(img.shape[0], -1).tolist():
        lines.append(" ".join(str(int(v)) for v in row))
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
