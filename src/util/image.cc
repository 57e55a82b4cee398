#include "util/image.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/bit_ops.h"
#include "util/logging.h"

namespace inc::util
{

Image::Image(int width, int height, std::uint8_t fill)
    : width_(width), height_(height),
      data_(static_cast<size_t>(width) * height, fill)
{
    if (width <= 0 || height <= 0)
        panic("Image dimensions must be positive (%dx%d)", width, height);
}

std::uint8_t
Image::atClamped(int x, int y) const
{
    x = std::clamp(x, 0, width_ - 1);
    y = std::clamp(y, 0, height_ - 1);
    return data_[idx(x, y)];
}

bool
writePgm(const Image &img, const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    std::fprintf(f, "P5\n%d %d\n255\n", img.width(), img.height());
    const size_t n = img.data().size();
    const bool ok = std::fwrite(img.data().data(), 1, n, f) == n;
    std::fclose(f);
    return ok;
}

Image
readPgm(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return {};
    char magic[3] = {0, 0, 0};
    int w = 0, h = 0, maxv = 0;
    if (std::fscanf(f, "%2s %d %d %d", magic, &w, &h, &maxv) != 4 ||
        std::string(magic) != "P5" || w <= 0 || h <= 0 || maxv != 255) {
        std::fclose(f);
        return {};
    }
    std::fgetc(f); // single whitespace after header
    Image img(w, h);
    const size_t n = img.data().size();
    const bool ok = std::fread(img.data().data(), 1, n, f) == n;
    std::fclose(f);
    return ok ? img : Image{};
}

namespace
{

/**
 * Smooth value noise: hash lattice points, bilinearly interpolate with a
 * smoothstep fade. Deterministic in (seed, x, y).
 */
double
valueNoise(std::uint64_t seed, double x, double y)
{
    auto lattice = [seed](int ix, int iy) {
        std::uint64_t h = seed;
        h ^= static_cast<std::uint64_t>(ix) * 0x9e3779b97f4a7c15ULL;
        h ^= static_cast<std::uint64_t>(iy) * 0xc2b2ae3d27d4eb4fULL;
        h ^= h >> 33;
        h *= 0xff51afd7ed558ccdULL;
        h ^= h >> 33;
        return static_cast<double>(h >> 11) * 0x1.0p-53;
    };
    const int ix = static_cast<int>(std::floor(x));
    const int iy = static_cast<int>(std::floor(y));
    const double fx = x - ix;
    const double fy = y - iy;
    auto fade = [](double t) { return t * t * (3.0 - 2.0 * t); };
    const double ux = fade(fx);
    const double uy = fade(fy);
    const double a = lattice(ix, iy);
    const double b = lattice(ix + 1, iy);
    const double c = lattice(ix, iy + 1);
    const double d = lattice(ix + 1, iy + 1);
    const double top = a + (b - a) * ux;
    const double bot = c + (d - c) * ux;
    return top + (bot - top) * uy;
}

std::uint8_t
toPixel(double v)
{
    return clampU8(static_cast<std::int64_t>(std::lround(v * 255.0)));
}

} // namespace

SceneGenerator::SceneGenerator(int width, int height, SceneKind kind,
                               std::uint64_t seed)
    : width_(width), height_(height), kind_(kind), seed_(seed)
{
    if (width <= 0 || height <= 0)
        panic("SceneGenerator dimensions must be positive");
}

Image
SceneGenerator::frame(int frame_index) const
{
    Image img(width_, height_);
    // Scene drift: content shifts slowly so consecutive frames correlate.
    const double drift = 0.35 * frame_index;
    const double w = width_;
    const double h = height_;
    Rng noise_rng(seed_ ^ (0xABCDULL + static_cast<std::uint64_t>(
                                           frame_index) * 0x9e3779b9ULL));

    // Per-frame invariants of the pixel loop, hoisted: the same
    // expressions in the same order, so the pixels are bit-identical.
    double blob_x[3] = {};
    double blob_y[3] = {};
    for (int b = 0; b < 3; ++b) {
        blob_x[b] = w * (0.25 + 0.22 * b) + 3.0 * std::sin(drift * 0.2 + b);
        blob_y[b] =
            h * (0.3 + 0.18 * b) + 2.0 * std::cos(drift * 0.15 + 2 * b);
    }
    const double blob_sigma = 0.018 * w * h / 4.0 + 8.0;
    const double scene_bx = w * 0.55 + 4.0 * std::sin(drift * 0.1);
    const double scene_by = h * 0.45;
    const int scene_edge = static_cast<int>(w * 0.75 + drift) % width_;

    for (int y = 0; y < height_; ++y) {
        for (int x = 0; x < width_; ++x) {
            double v = 0.0;
            const double fx = (x + drift) / w;
            const double fy = (y + 0.5 * drift) / h;
            switch (kind_) {
              case SceneKind::gradient:
                v = 0.5 * fx + 0.5 * fy;
                break;
              case SceneKind::checker: {
                const int cx = static_cast<int>((x + drift) / 8.0);
                const int cy = static_cast<int>(y / 8.0);
                v = ((cx + cy) & 1) ? 0.85 : 0.15;
                break;
              }
              case SceneKind::blobs: {
                v = 0.15;
                for (int b = 0; b < 3; ++b) {
                    const double r2 =
                        (x - blob_x[b]) * (x - blob_x[b]) +
                        (y - blob_y[b]) * (y - blob_y[b]);
                    v += 0.6 * std::exp(-r2 / blob_sigma);
                }
                break;
              }
              case SceneKind::texture:
                v = 0.5 * valueNoise(seed_, (x + drift) / 5.0, y / 5.0) +
                    0.3 * valueNoise(seed_ + 7, (x + drift) / 11.0,
                                     y / 11.0) +
                    0.2 * valueNoise(seed_ + 13, (x + drift) / 23.0,
                                     y / 23.0);
                break;
              case SceneKind::scene: {
                // Shading + a blob silhouette + a hard vertical edge +
                // faint texture: exercises gradients, corners and noise
                // response together.
                v = 0.25 + 0.3 * fx + 0.15 * fy;
                const double r2 = (x - scene_bx) * (x - scene_bx) +
                                  (y - scene_by) * (y - scene_by);
                if (r2 < 0.03 * w * h)
                    v += 0.4;
                if (x > scene_edge)
                    v -= 0.2;
                v += 0.08 * (valueNoise(seed_, (x + drift) / 6.0,
                                        y / 6.0) - 0.5);
                break;
              }
            }
            // Mild sensor noise on every kind but gradient/checker.
            if (kind_ == SceneKind::texture || kind_ == SceneKind::scene ||
                kind_ == SceneKind::blobs) {
                v += 0.01 * noise_rng.nextGaussian();
            }
            img.set(x, y, toPixel(v));
        }
    }
    return img;
}

} // namespace inc::util
