"""Bitwise replication of ``numpy.random.Generator`` scalar draws.

The workload arrival loop (:mod:`repro.workloads.base`) makes a few
scalar draws per request, and the golden fingerprints pin their *exact*
sequence: ``rng.random()``, ``rng.integers(...)``, and
``rng.exponential(...)`` interleave in a data-dependent order (the
write-fraction draw decides which pattern samples next), so no
vectorized numpy call can reproduce the stream, and each scalar
``Generator`` call costs far more than the arithmetic behind it.

What *can* be batched is the raw entropy.  :class:`RawDraws` prefetches
blocks of 64-bit PCG64 output (``BitGenerator.random_raw``) and decodes
the same transformations numpy applies to them:

- ``random()`` — 53-bit mantissa fill: ``(word >> 11) * 2**-53``.
- ``integers(low, high)`` — Lemire rejection sampling; spans up to
  ``2**32`` consume buffered 32-bit half-words (low half first, high
  half carried), larger spans consume whole words.
- ``exponential(scale)`` — ``scale`` times numpy's 256-bucket
  ziggurat draw, with its exact ``ke``/``we``/``fe`` tables embedded
  below and the ``log1p`` tail branch.  ``exponential(1.0)`` is
  ``Generator.standard_exponential()``, since ``1.0 * x == x``.

The arrival loop makes three or four draws per request, so each
method fetches its word inline: ``random()``, ``exponential()`` and the
first half-word of a 32-bit ``integers()`` draw make no helper call.
Only ``integers()``'s rejection retries and spans past ``2**32`` call
``_next32`` / ``_next64``.

Every decode is bit for bit the draw the ``Generator`` would have made,
so a workload holds one :class:`RawDraws` for its whole run in place of
the ``Generator``.  The decoder reads up to one block ahead of the draws
it has served, so nothing else may draw from the same bit generator.

Trust, but verify: :func:`replication_verified` cross-checks a scripted
mix of draws against a live ``Generator`` once per process and the
callers draw from the ``Generator`` itself if the installed numpy
disagrees (a different bit generator, changed ziggurat constants, a new
bounded-integer algorithm).  The check costs ~15 ms once and turns a silent
fingerprint divergence into a plain performance regression.
"""

from __future__ import annotations

import base64
import math
import struct
from typing import Any

__all__ = ["RawDraws", "replication_verified"]

_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF
_SPAN32 = 1 << 32
_INV53 = 2.0**-53

#: numpy's ``ziggurat_exp_r`` — the rightmost ziggurat bucket edge.
_ZIG_R = 7.69711747013104972


def _u64_table(blob: str) -> tuple[int, ...]:
    return struct.unpack("<256Q", base64.b64decode(blob))


def _f64_table(blob: str) -> tuple[float, ...]:
    return struct.unpack("<256d", base64.b64decode(blob))


# The exponential-ziggurat tables (``ke_double`` / ``we_double`` /
# ``fe_double`` in numpy's ``distributions.c``), embedded as packed
# little-endian base64 so the decode path has no runtime dependency on
# numpy internals.  replication_verified() guards against drift.
_KE = _u64_table((
    "xpckJxRSHAAAAAAAAAAAAH4xnNdbfRMAEDw/jvVuGACusA4yt5saAHxEGfcn0RsAGmWIDx2V"
    "HAByOVwt/hsdALIYa9Vbfh0AcCwX3TTJHQDInazfCQQeADZ41HF7Mx4Aord8F4taHgBsBG8J"
    "QnseAD6uCK8Nlx4AnvBOsfWuHgBWZbQHvcMeAM6Zh/D21R4AiFZurhTmHgDQHDbKbvQeAKTU"
    "3XZLAR8AtpanE+MMHwB69/FpYxcfAHAlRQzyIB8AdKhRGa4pHwAyVbmPsTEfAAbBV1ESOR8A"
    "TGlu6+I/HwD6iNcyM0YfAA46Hb8QTB8AIjNcTIdRHwDA7MMJoVYfAJaZCdlmWx8AjNAQguBf"
    "HwByV0TdFGQfAHiWhfYJaB8A5gIrKsVrHwD05DI9S28fADrxkHGgch8A1glNl8h1HwDAXAQb"
    "x3gfAPQ/QRKfex8Aip8HRlN+HwA4EeI75oAfAGKRrT1agx8AErlWYLGFHwBiQrKJ7YcfAPp0"
    "k3UQih8ArDk9uhuMHwBK0EXMEI4fABY+AQLxjx8A4FiDlr2RHwDYr0esd5MfANpki08glR8A"
    "kjhjeLiWHwCSiJYMQZgfAIC6RuG6mR8AAH9pvCabHwB6cRtWhZwfAALYz1nXnR8AzqFhZx2f"
    "HwDANgkUWKAfADgzOuuHoR8A/MRrb62iHwCCBs4ayaMfAKJq7l/bpB8AfAlNquSlHwCCZ+Re"
    "5aYfAMQepdzdpx8AdKjmfM6oHwDuX86Tt6kfAFi4rXCZqh8AMoJYXnSrHwCEBXSjSKwfAOif"
    "v4IWrR8AwIJXO96tHwBsHfIIoK4fAH6wGCRcrx8AEnpbwhKwHwD034EWxLAfAPrxtlBwsR8A"
    "OpaynheyHwBKqN8rurIfABhOfyFYsx8ADL7JpvGzHwDWrAzhhrQfAPyTx/MXtR8Aqv3FAKW1"
    "HwBY/jcoLrYfAAoByYizth8AmAe1PzW3HwCofdxos7cfAAi61h4uuB8A9kcDe6W4HwB0D5qV"
    "GbkfAARyuoWKuR8AJm95Yfi5HwCG4u49Y7ofABbsQS/Luh8ARJG0SDC7HwDipK6ckrsfAJ4C"
    "yDzyux8AlCnSOU+8HwDUQOGjqbwfAJ6PVIoBvR8AnHLe+1a9HwBq1osGqr0fAEA/y7f6vR8A"
    "3mRzHEm+HwBeaclAlb4fACixhjDfvh8AdGHe9ia/HwDiioKebL8fAMQEqTGwvx8AsP0PuvG/"
    "HwCIRQJBMcAfALJUW89uwB8AJhSLbarAHwCKaZkj5MAfAGSKKfkbwR8AQhl99VHBHwBKD3cf"
    "hsEfALR0nn24wR8AQuogFunBHwDeBdXuF8IfAP6DPA1Fwh8Awk+GdnDCHwAOY5AvmsIfAEaA"
    "6TzCwh8AtMbSoujCHwDsIkFlDcMfAA6c3ocwwx8Axn4LDlLDHwD4Zt/6ccMfAIYoKlGQwx8A"
    "+pd0E63DHwBIMwFEyMMfAECrzOThwx8AqE2O9/nDHwBgULh9EMQfAGj9d3glxB8Axr+16DjE"
    "HwAqERXPSsQfAOhH9CtbxB8ABEVs/2nEHwCyAVBJd8QfALj7KwmDxB8A9n9FPo3EHwAa0pnn"
    "lcQfALAw3QOdxB8AMrR5kaLEHwD8B46OpsQfAIz76/ioxB8AnuoWzqnEHwA0+kELqcQfAKAo"
    "Tq2mxB8AdC7IsKLEHwDiLeYRncQfAPQthcyVxB8AwF4m3IzEHwB6I+w7gsQfAObeluZ1xB8A"
    "gn6B1mfEHwA2wJ0FWMQfACAucG1GxB8AmMsLBzPEHwAObg3LHcQfAPa7lrEGxB8AYstIsu3D"
    "HwA8WT7E0sMfALSRBd61wx8ATGGZ9ZbDHwCSRVoAdsMfAHCTBvNSwx8AGCiywS3DHwCIeL1f"
    "BsMfAGLyy7/cwh8Anp+507DCHwDw/I+MgsIfAGTxedpRwh8AntO2rB7CHwBWZ4zx6MEfADy7"
    "N5awwR8AEM3chnXBHwC21nSuN8EfABQku/b2wB8ApE0YSLPAHwDwr4uJbMAfAGTzkqAiwB8A"
    "uHIPcdW/HwCOSCndhL8fAArGL8Uwvx8Axgx3B9m+HwDafTKAfb4fABSmSwkevh8ACEQ1erq9"
    "HwAm+LmnUr0fABogxmPmvB8A5E0sfXW8HwCqt2O//7sfAKLmP/KEux8AjNGg2QS7HwCscBo1"
    "f7ofABi2kr/zuR8A/KvULmK5HwAWShczyrgfAFRbdnYruB8AXIlbnIW3HwCUVdVA2LYfAEJp"
    "2fcith8A4DdvTGW1HwDSab+/nrQfAEbnA8jOsx8APpxTz/SyHwBSKEQyELIfAASWWj4gsR8A"
    "wuFCMCSwHwCmecQxG68fAAThZ1cErh8Aci2/nd6sHwAKBkDmqKsfACj/mfNhqh8AomZvZQip"
    "HwA8jVCzmqcfABTy0SYXph8AAOqL1HukHwCUwMWTxqIfABTzffT0oB8ACr5rMwSfHwC8+Xkr"
    "8ZwfAMSrFUS4mh8AuC94W1WYHwB4P9Crw5UfAPLxzqn9kh8AHOSa2vyPHwD4hXOeuYwfAAaW"
    "R+wqiR8AjtsE+UWFHwCaAzbD/YAfACbpOXhCfB8AzCpYowB3HwAcJBoPIHEfACo1tzSCah8A"
    "ZuKoAABjHwDE40+QZlofAHIRzk5yUB8A2m9cZsdEHwCiWYqj5TYfAAo0UDQUJh8AFAR7BD4R"
    "HwDmy1f6rvYeAB4ViKGM0x4AsC0SHqaiHgB8JovHYVkeALALrCv23R0AwOjk2U3bHAA="
))
_WE = _f64_table((
    "wV2/lOxk0TwZQV2LnVhgPCtNW0my1mo8uo1bqTWTcTxzKkrl5iJ1PIB6wvuQUHg8zLd579E4"
    "ezyYvW232Ox9PDxcxknwO4A8cPbWJNtwgTwzJtqQApiCPMpuPf6Is4M8If4LxhXFhDzDSgKd"
    "+M2FPL0rp/BAz4Y8GdAX2s3JhzxvYNNUWb6IPNI3IlWArYk8A1JdvsiXijzEo93dpX2LPIk/"
    "jNd7X4w8NnzxTaI9jTxac/F4ZhiOPKpPX88M8I48CTJoXdLEjzxYdWrtdkuQPPyAm0dIs5A8"
    "r/VJh/MZkTyg30vrjH+RPOdJPukm5JE8Lv84ZdJHkjwLaCPhnqqSPEvaJqWaDJM8AoJt4tJt"
    "kzygYiHRU86TPEhncMooLpQ8Euc1X1yNlDyTC81r+OuUPE1veCkGSpU8/b64PY6nlTzPLt3H"
    "mASWPOBoDG0tYZY8RKn6YlO9ljy7kHl5ERmXPHN5ByNudJc8coF+fG/PlzyZ1f5TGyqYPOzh"
    "Ky93hJg8KsXQUIjemDxEov29UziZPDgTrULekZk8vwP/dSzrmTxKiBS+QkSaPGHSllMlnZo8"
    "ySTyRNj1mjybl0x5X06bPImPP7O+pps8mf5Zk/n+mzyf0nCaE1ecPNtawisQr5w8++bwjvIG"
    "nTyNa9jxvV6dPFeQQmp1tp08/jF89xsOnjxEEM+DtGWePGIb4uVBvZ48n5QC4sYUnzy1/lcr"
    "RmyfPKGpBGXCw5882TyaEZ8NoDxisQ32XTmgPPh2chwfZaA8cgBLu+OQoDw3AXEDrbygPGYv"
    "eiB86KA8FawXOVIUoTy+fXBvMEChPPt/d+EXbKE8liM9qQmYoTyDUj3dBsShPOLEqZAQ8KE8"
    "BQ6x0yccojwpo8KzTUiiPJ8Y0DuDdKI8qs2LdMmgojxdO6VkIc2iPCEXAxGM+aI8EXb7fAom"
    "ozyhG4qqnVKjPPAahZpGf6M8/O/PTAasozxtM43A3dijPMQJT/TNBaQ80GxG5tcypDynbHGU"
    "/F+kPMSDyPw8jaQ8pBhrHZq6pDzqRcv0FOikPPsA2YGuFaU8+LUsxGdDpTwnbzG8QXGlPPmc"
    "Tms9n6U8NZMR1FvNpTwmz1b6nfulPC4ac+MEKqY8jJtclpFYpjzu69MbRYemPN88jX4gtqY8"
    "CKZZyyTlpjz7qVARUxSnPBwE+mGsQ6c8MNF30TFzpzwKJLF25KKnPPcXfWvF0qc8d3LOzNUC"
    "qDwq5t+6FjOoPOcIYVmJY6g8VA+kzy6UqDyUYMxICMWoPBMV/vMW9qg84XOOBFwnqTyKgjWy"
    "2FipPPS7QDmOiqk8XQPH2n28qTxR6d3cqO6pPC1Z0IoQIao8kMZWNbZTqjwP89Aym4aqPHpl"
    "gd/Auao8/6zKnSjtqjy1i27W0yCrPEIlz/jDVKs8tk8ye/qIqzwQJgfbeL2rPIX9LZ1A8qs8"
    "LeBCTlMnrDykseqCslysPPsjI9hfkqw8bKWV81zIrDyAce2Dq/6sPK3yMEFNNa08/qMe7UNs"
    "rTwKpY1TkaOtPH810ko32608m1AmtDcTrjxSpBZ8lEuuPH8j9JpPhK48eHZKFWu9rjxokVv8"
    "6PauPH+8oG7LMK880F5RmBRrrzzl4e+zxqWvPNgJ3Qrk4K881BH5ejcOsDwbORHvNCywPKMk"
    "kp5rSrA82yYRz9xosDwPrTrPiYewPBnIM/dzprA8b5QAqZzFsDy3z+9QBeWwPM7vC2avBLE8"
    "ShWSapwksTwrOm/szUSxPMEExIVFZbE8nq5v3QSGsTwgeKKnDaexPFoqeKZhyLE8cDObqgLq"
    "sTyi9PCT8guyPFDlT1IzLrI8ujtA5sZQsjym2sdhr3OyPCtTQunulrI8UdtFtIe6sjxwLZYO"
    "fN6yPGVZJlnOArM80KcqC4EnszxlyTuzlkyzPFaojPgRcrM8Q1E0nPWXszyDi416RL6zPNDe"
    "rYwB5bM8re716S8MtDz4Qr3J0jO0PCzJG4XtW7Q8MpTTmIOEtDxMoV2nmK20PCexHHsw17Q8"
    "CJW5CE8BtTyyqqxx+Cu1PFqn+AYxV7U8YUQbTP2CtTwH4Tj6Ya+1PJ69iANk3LU8eRgIlwgK"
    "tjyULnskVTi2PDL0w2BPZ7Y87kiXSv2Wtjwee5ovZce2PAcl9LGN+LY8GNJczn0qtzzDcb3i"
    "PF23PPlxa7XSkLc803YUfUfFtzwSFG7po/q3PMO+wCzxMLg8QnNoBjlouDyrW2nOhaC4PJU2"
    "O4Li2bg8RHXz0loUuTwOKvw0+0+5PNgajfHQjLk86tkkOurKuTx48Uk+Vgq6PDtM6EMlS7o8"
    "6oatwmiNujzERdiCM9G6PAq2A8CZFrs8D+qRULFduzxe2nbSkaa7PHfvS95U8bs8p+DCQRY+"
    "vDz0yMhC9Iy8PH+p8uwP3rw8xTgna40xvTzsO+xvlIe9PJ/xTq9Q4L08YAkZbvI7vjzBg/Mq"
    "r5q+PErqUGfC/L48p/eRl25ivzzlxvZD/su/PC7sYrPiHMA87471ixFWwDxOpcvNwZHAPKBI"
    "XXgx0MA8ppJDA6gRwTwqRHVneFbBPNbCs7wDn8E8fPrJoLzrwTyfkVm2Kz3CPKWqSa71k8I8"
    "8BFEiuPwwjxe98wn7lTDPGG4yMdOwcM8YhPkZpc3xDzRUUfN17nEPPZzzzzYSsU80hNz4Xru"
    "xTxyv0ttZ6rGPC/G6tZQh8c8Ge3y5p+TyDyFe0gN3OnJPPxx2lGew8s8g7t+KdnJzjw="
))
_FE = _f64_table((
    "AAAAAAAA8D83EYjlRQXuP/H/gVCm0Ow/J3vrewDl6z8qf+YODyHrP+f6YqW6duo/m21VFZfe"
    "6T85qlXEMVTpPy/S03aj1Og/uMUGeOhd6D8mMSQtiu7nP37UCZtuhec/Y0upW7sh5z/GGIRJ"
    "w8LmPwZcT236Z+Y/Zq+nwe0Q5j91rExpPb3lP3OH2oKYbOU/mol4Fboe5T+v+FHBZtPkP2ng"
    "jvtqiuQ/JeGor5lD5D+Ai7Ery/7jPxTR4UTcu+M/2d0Ip6164z8YYw5FIzvjP17aReMj/eI/"
    "JE8ftpjA4j+9MhERbYXiP6NQjCKOS+I/yD6BuuoS4j+Je4cZc9vhPyU7HscYpeE/7m/Obc5v"
    "4T+cFjO8hzvhP43DHEo5COE/Kx4rgdjV4D8q0FSIW6TgP3077jG5c+A/SGXS6+hD4D8k82Cx"
    "4hTgP3ZFIf49zd8/+sW/ji1y3z9NQuvRhhjfP5Cdlks9wN4/UdN9NkVp3j/8N+F1kxPePwwh"
    "p4gdv90/eu25fdlr3T8LGn7pvRndP5LgQNzByNw/YPuD2dx43D+DpQ7QBircP7XurhI43Ns/"
    "iAuZUWmP2z9vgFSUk0PbP1/vKDSw+No/5fb91riu2j9AAaNqp2XaP/QhdSB2Hdo/kjdaaR/W"
    "2T+oewnynY/ZPxCBmp/sSdk/BF1UjAYF2T85XbcE58DYP4w/vISJfdg/OGFEtek62D9ZzrZp"
    "A/nXPx6Axp3St9c/43Jec1N31z/qjbAwgjfXP52eZD5b+NY/nOnkJdu51j+fDcaP/nvWP+Qn"
    "SELCPtY/dljvHyMC1j9s7jEmHsbVP++pOmywitU/56O9IddP1T/1id6NjxXVPx35Jg7X29Q/"
    "09qLFaui1D/vvoArCWrUP+JBGOvuMdQ/TqEwAlr60z+FsqswSMPTP+99sUe3jNM/3dD8KKVW"
    "0z81JDHGDyHTP3BCOSD169I/YiKuRlO30j8pdkVXKIPSP/12R31yT9I//34L8S8c0j/bCXv3"
    "XunRP1q8muH9ttE/ghkZDAuF0T/vkeLehFPRP7qfusxpItE/bKbZUrjx0D8zU4/4bsHQPxM+"
    "6U6MkdA/0pBd8A5i0D8sfHmA9TLQP2pHk6s+BNA/VJP/TNKrzz9+PpZc50/PP5vg6A+69M4/"
    "8kBZAEiazj+ngy/WjkDOPzlPIkiM580/uO7jGj6PzT/9MbQgojfNP5/Q9ji24Mw/AhjOT3iK"
    "zD/ur7ld5jTMPzVEOWf+38s/peRyfL6Lyz8+79y4JDjLPwtb60Iv5co/STzAS9ySyj+8XN8O"
    "KkHKPxLF5NEW8Mk/IxY+5KCfyT+hkuaexk/JP3m7JWSGAMk/1WJQn96xyD/5GozEzWPIP+bn"
    "lFBSFsg/rhuFyGrJxz/+Rp+5FX3HPzkoGrlRMcc/6oTuYx3mxj8o2qZed5vGP6zRMFVeUcY/"
    "MWqw+tAHxj+2wlQJzr7FP/V4LkJUdsU/SYwHbWIuxT/6tjxY9+bEP5YwmNgRoMQ/xswtybBZ"
    "xD+aajgL0xPEPwWp+IV3zsM/ydWUJp2Jwz+vDPrfQkXDP259vqpnAcM/NM8EhQq+wj9AmWBy"
    "KnvCP3jou3vGOMI/Zco9r932wT9m1jEgb7XBP3iu8OZ5dME/L3HJIP0zwT8gF+zv9/PAPy+2"
    "VHtptMA/vqW37lB1wD8Ef256rTbAP43qy6b88L8/FAQZZoV1vz88w4Ou8/q+P8y5jgRGgb4/"
    "+7ph9XoIvj+Yk60WkZC9P9dNkQaHGb0/V/2Aa1ujvD+vEC70DC68P48mcVeaubs/SGU1VAJG"
    "uz9lVGWxQ9O6P7c42T1dYbo/KPRG0E3wuT9wazNHFIC5P7l05YivELk/O1Nagx6iuD+6xDss"
    "YDS4P/Om14Bzx7c/HjwZhldbtz+2FoRIC/C2PyC2MNyNhbY/997KXN4btj8+u5Ht+7K1PzbQ"
    "WbnlSrU/KdmQ8prjtD9cmEPTGn20Pw6xJZ1kF7Q/np+bmXeysz8Y58YZU06zP9GNlHb26rI/"
    "cAXOEGGIsj+MnSxRkiayP0Cjb6iJxbE/klN1j0ZlsT9QylaHyAWxPzsbhxkPp7A/F8j11xlJ"
    "sD92lmm60NevPzToRJn0Hq8/5bIupZ5nrj8QWDFJzrGtP0p5HgOD/aw/6SEHZLxKrD+F2b4Q"
    "epmrP4SAasK76ao/OPEbR4E7qj9MfHuCyo6pP213gG6X46g/azk6HOg5qD+eCKu0vJGnP1Kv"
    "tnkV66Y/QaAmx/JFpj/K0sUTVaKlP+vFlvI8AKU/GWsmFKtfpD//GP9HoMCjP64UP34dI6M/"
    "DMBWySOHoj/UEvNftOyhP6GzGZ/QU6E/UdZ8DHq8oD/u+g1ZsiagP5CYr8f2JJ8/aHRReq7/"
    "nT8MGzNUkN2cP3BY+lChvps/m06S5uaimj9IKhMPZ4qZP2eZ7FModZg/lvyH2jFjlz93QKJy"
    "i1SWP1ECq6Y9SZU/vvCHzlFBlD+EXTEl0jyTPzI6ueHJO5I/X19yVEU+kT/wAh4JUkSQP87H"
    "id79m44/VyduFLm2jD8tyUJV+tiKP72nj2jqAok/9XSq5rY0hz/LFuQLk26FP2JvUcG4sIM/"
    "cXaz7Wn7gT/5118p8k6AP8VddPpRV30/NkiX1Okjej8gNuw3nwR3P/0i486X+nM/Q0BXaT0H"
    "cT8RS82Bs1hsP//+ofOI2GY/JKPhqGuUYT8lPgxUtStZP7n8jfcKsk8/SwufMhzDPT8="
))


class RawDraws:
    """Replays a PCG64 ``Generator``'s scalar draws from raw words.

    Args:
        bit_generator: The *live* ``numpy.random.PCG64`` behind the
            generator being replicated.  Prefetching advances it past
            the draws served so far, so nothing else may draw from it.
        block: Words fetched per ``random_raw`` call.

    Attributes:
        has32: Whether a 32-bit half-word is buffered (numpy's
            ``has_uint32`` carry for bounded-integer draws).
        carry32: The buffered half-word.
    """

    __slots__ = ("_bg", "_buf", "_len", "_pos", "_block", "has32", "carry32")

    def __init__(self, bit_generator: Any, block: int = 1024) -> None:
        state = bit_generator.state
        if state.get("bit_generator") != "PCG64":
            raise ValueError("RawDraws replicates PCG64 streams only")
        self._bg = bit_generator
        self._block = block
        self._buf: list[int] = []
        self._len = 0
        self._pos = 0
        # Seed the half-word buffer from the generator's own carry: a
        # prior scalar integers() draw may have left one behind.
        self.has32 = bool(state["has_uint32"])
        self.carry32 = int(state["uinteger"])

    # -- raw words ------------------------------------------------------
    def _next64(self) -> int:
        pos = self._pos
        if pos == self._len:
            buf = self._bg.random_raw(self._block).tolist()
            self._buf = buf
            self._len = len(buf)
            pos = 0
        self._pos = pos + 1
        word: int = self._buf[pos]
        return word

    def _next32(self) -> int:
        # numpy's bounded-integer path: the low half of a fresh word is
        # returned first, the high half is carried for the next call.
        if self.has32:
            self.has32 = False
            return self.carry32
        word = self._next64()
        self.has32 = True
        self.carry32 = word >> 32
        return word & _M32

    # -- Generator-equivalent draws ------------------------------------
    def random(self) -> float:
        """``Generator.random()``: one double in [0, 1)."""
        # _next64 inlined: this is the single hottest decode.
        pos = self._pos
        if pos == self._len:
            self._buf = self._bg.random_raw(self._block).tolist()
            self._len = len(self._buf)
            pos = 0
        self._pos = pos + 1
        return (self._buf[pos] >> 11) * _INV53

    def integers(self, low: int, high: int) -> int:
        """``Generator.integers(low, high)`` (default int64, high open)."""
        span = high - low
        if span == 1:  # numpy short-circuits without consuming entropy
            return low
        if span <= _SPAN32:
            # 32-bit Lemire with rejection (also taken for power-of-two
            # spans: numpy's masked path is reserved for other dtypes).
            # The first half-word is _next32 inlined; the rare rejection
            # loop below calls it.
            if self.has32:
                self.has32 = False
                m = self.carry32 * span
            else:
                pos = self._pos
                if pos == self._len:
                    self._buf = self._bg.random_raw(self._block).tolist()
                    self._len = len(self._buf)
                    pos = 0
                self._pos = pos + 1
                word = self._buf[pos]
                self.has32 = True
                self.carry32 = word >> 32
                m = (word & _M32) * span
            leftover = m & _M32
            if leftover < span:
                threshold = (_M32 - (span - 1)) % span
                while leftover < threshold:
                    m = self._next32() * span
                    leftover = m & _M32
            return low + (m >> 32)
        m = self._next64() * span
        leftover = m & _M64
        if leftover < span:
            threshold = (_M64 - (span - 1)) % span
            while leftover < threshold:
                m = self._next64() * span
                leftover = m & _M64
        return low + (m >> 64)

    def exponential(self, scale: float) -> float:
        """``Generator.exponential(scale)``: the ziggurat method, scaled."""
        ke = _KE
        we = _WE
        while True:
            # _next64 inlined (one draw per arrival gap).
            pos = self._pos
            if pos == self._len:
                self._buf = self._bg.random_raw(self._block).tolist()
                self._len = len(self._buf)
                pos = 0
            self._pos = pos + 1
            ri = self._buf[pos] >> 3
            idx = ri & 0xFF
            ri >>= 8
            x = ri * we[idx]
            if ri < ke[idx]:
                return scale * x  # ~98.9% of draws exit here
            if idx == 0:
                return scale * (_ZIG_R - math.log1p(-self.random()))
            if (_FE[idx - 1] - _FE[idx]) * self.random() + _FE[idx] < math.exp(-x):
                return scale * x


# ----------------------------------------------------------------------
# Self-verification
# ----------------------------------------------------------------------
_verified: bool | None = None


def _run_verification() -> bool:
    import numpy as np

    spans = [2, 3, 7, 10, 97, 2990, 4096, 65536, 98304, (1 << 31) + 7, 1 << 32, (1 << 40) + 13]
    for seed in (0xC0FFEE, 20190325):
        ref = np.random.Generator(np.random.PCG64(seed))
        bg = np.random.PCG64(seed)
        raw = RawDraws(bg, block=64)
        # A draw mix shaped like the arrival loop: uniform doubles,
        # bounded integers (odd counts, to exercise the carry), and
        # exponentials, interleaved.
        for i in range(400):
            span = spans[i % len(spans)]
            if ref.random() != raw.random():
                return False
            if int(ref.integers(0, span)) != raw.integers(0, span):
                return False
            if float(ref.exponential(3.25)) != raw.exponential(3.25):
                return False
            if i % 7 == 0 and int(ref.integers(5, 5 + span)) != raw.integers(5, 5 + span):
                return False
        # Tail coverage for the ziggurat's rare branches (~1% of draws
        # take the wedge test, so a few thousand draws exercise it).  One
        # sized call yields the same values as that many scalar calls.
        for expected in ref.standard_exponential(4_000).tolist():
            if expected != raw.exponential(1.0):
                return False
    return True


def replication_verified() -> bool:
    """Whether this process's numpy reproduces :class:`RawDraws` exactly.

    Computed once and cached; on any mismatch (or any exception) the
    callers draw from the ``Generator`` itself.
    """
    global _verified
    if _verified is None:
        try:
            _verified = _run_verification()
        except Exception:  # pragma: no cover - defensive fallback
            _verified = False
    return _verified
