/**
 * @file
 * Mozilla model.
 *
 * The paper describes mozilla as the hardest application to predict:
 * the user follows links, page loads are bursty, many idle periods
 * are short, and multimedia pages trigger *delayed* library loads —
 * the browser scenario the paper gives for subpath aliasing ("some
 * pages require loading additional libraries to decode the
 * multimedia context and some do not", Section 4.1).
 *
 * Structure of one execution:
 *   - startup: dlopen of shared libraries + profile/prefs read, then
 *     a medium pause while the user types the first URL;
 *   - a session of page visits. Visits come in page classes with a
 *     class-specific number of cache files (so each class has a
 *     stable PC-path signature), and in two modes driven by a sticky
 *     Markov chain: TEXT pages finish after the base burst; MEDIA
 *     pages pause 2.5-4.5 s (below breakeven — the aliasing hazard)
 *     and then load the plugin plus media data;
 *   - a render helper process reads fonts during visits and performs
 *     a lazy prefetch mid-think on some visits (the "multiple
 *     processes with short idle intervals" of Section 6.1);
 *   - an NSS/psm helper reads certificate databases at startup;
 *   - session state is written on exit.
 */

#include "workload/apps.hpp"

#include "workload/actor.hpp"

namespace pcap::workload {

namespace {

// Call sites (stable across executions: the property PCAP exploits).
constexpr Address kBase = 0x08048000;
constexpr Address kPcDlopen = kBase + 0x010;
constexpr Address kPcPrefs = kBase + 0x020;
constexpr Address kPcHistWrite = kBase + 0x030;
constexpr Address kPcCacheRead = kBase + 0x040;
constexpr Address kPcCacheWrite = kBase + 0x050;
constexpr Address kPcPluginLoad = kBase + 0x060;
constexpr Address kPcMediaRead = kBase + 0x070;
constexpr Address kPcRender = kBase + 0x080;
constexpr Address kPcPrefetch = kBase + 0x090;
constexpr Address kPcPsm = kBase + 0x0a0;
constexpr Address kPcSession = kBase + 0x0b0;

// Files.
constexpr FileId kLibBase = 1000;     // shared libraries
constexpr FileId kPrefsFile = 1100;
constexpr FileId kHistoryDb = 1200;
constexpr FileId kPluginLib = 1300;
constexpr FileId kMediaBase = 1400;
constexpr FileId kFontBase = 1500;
constexpr FileId kSessionFile = 1600;
constexpr FileId kCertDb = 1700;
constexpr FileId kCacheBase = 2000;   // + class * 16 + index

// Shape parameters.
constexpr int kLibCount = 20;
constexpr int kPageClasses = 4;
constexpr double kMediaStay = 0.55;  // mode stickiness
constexpr double kMediaEnter = 0.20; // TEXT -> MEDIA probability

constexpr Pid kMainPid = 100;
constexpr Pid kRenderPid = 101;
constexpr Pid kPsmPid = 102;

class MozillaModel : public AppModel
{
  public:
    MozillaModel()
        : info_{"mozilla", 49,
                "web browser; bursty page loads, media subpath "
                "aliasing"}
    {
    }

    const AppInfo &info() const override { return info_; }

    trace::Trace
    generate(int execution, Rng rng,
             std::vector<trace::TraceEvent> storage) const override
    {
        trace::TraceBuilder builder(info_.name, execution, kMainPid,
                                    std::move(storage));
        Actor main(builder, rng.fork(1), kMainPid, millisUs(50));
        main.setIntraGap(millisUs(10));

        // --- Startup: load libraries and the user profile.
        for (int lib = 0; lib < kLibCount; ++lib) {
            const FileId file = kLibBase + lib;
            const std::uint32_t bytes =
                (80 + (lib * 37) % 120) * 1024;
            main.open(kPcDlopen, 4, file);
            main.readFile(kPcDlopen, 4, file, 0, bytes, 4096);
        }
        main.open(kPcPrefs, 5, kPrefsFile);
        main.readFile(kPcPrefs, 5, kPrefsFile, 0, 8 * 1024, 4096);

        // Helpers come to life once the chrome is up.
        main.fork(kRenderPid);
        main.fork(kPsmPid);
        Actor render(builder, rng.fork(2), kRenderPid, main.now());
        Actor psm(builder, rng.fork(3), kPsmPid, main.now());
        render.setIntraGap(millisUs(10));
        psm.setIntraGap(millisUs(10));

        // The security helper loads its certificate databases once.
        psm.readFile(kPcPsm, 4, kCertDb, 0, 40 * 1024, 4096);

        // The user types the first URL: a medium pause.
        main.pauseBetween(millisUs(2000), millisUs(4500));

        // --- Browsing session.
        const int visits =
            static_cast<int>(main.rng().uniformInt(6, 10));
        bool media_mode = false;
        for (int visit = 0; visit < visits; ++visit) {
            // Sticky mode switch (media pages cluster).
            if (media_mode)
                media_mode = main.rng().chance(kMediaStay);
            else
                media_mode = main.rng().chance(kMediaEnter);

            const int page_class = static_cast<int>(
                main.rng().uniformInt(0, kPageClasses - 1));
            // Media pages sometimes pre-open the plugin stream,
            // shifting fd allocation for the cache files — the hook
            // PCAPf exploits on this workload.
            const Fd cache_fd =
                media_mode && main.rng().chance(0.5) ? 7 : 6;

            if (media_mode) {
                // Media pages stall on the network after the history
                // update while the streaming server negotiates: a
                // medium idle period *inside* the visit. The stall
                // is what the idle-history context (PCAPh) can see
                // that the bare path signature cannot.
                main.op(trace::EventType::Write, kPcHistWrite, 5,
                        kHistoryDb, 0, 4096);
                main.pauseBetween(millisUs(1600), millisUs(3100));
            }
            visitBaseBurst(main, page_class, cache_fd);
            const int visit_slot = visit;

            // Progressive page build on heavier pages: the main
            // process waits ~8 s for layout while the helpers fetch
            // fonts and check certificates. The main process sees a
            // short local idle period, but the helpers' staggered
            // accesses keep the *global* stream busy — the paper's
            // "multiple processes with short idle intervals"
            // (Section 6.1), and the reason Table 1's local idle
            // count for mozilla is almost 3x the global one.
            // Heavy page classes always build progressively;
            // light ones render at once. Keeping this deterministic
            // per class keeps idle-history patterns learnable.
            if (page_class >= 2) {
                render.advanceTo(main.now() + millisUs(400));
                render.readFile(kPcRender, 5,
                                kFontBase + page_class, 0, 48 * 1024,
                                4096);
                psm.advanceTo(main.now() + millisUs(700));
                psm.op(trace::EventType::Read, kPcPrefetch, 4,
                       kCertDb, 8 * 4096, 8 * 1024);
                main.pauseBetween(millisUs(8600), millisUs(10500));
            }
            visitCompletionBurst(main, page_class, cache_fd,
                                 visit_slot);

            if (media_mode) {
                // The aliasing hazard: the completed page load looks
                // exactly like a TEXT visit, then a sub-breakeven
                // pause, then the plugin load.
                main.pauseBetween(millisUs(2500), millisUs(4500));
                main.readFile(kPcPluginLoad, 8, kPluginLib, 0,
                              96 * 1024, 4096);
                main.readFile(kPcMediaRead, 8,
                              kMediaBase + page_class, 0, 64 * 1024,
                              4096);
            }

            // Reading the page.
            main.think(16.0, 1.5, 7.0, 900.0);
        }

        // --- Shutdown: persist session state.
        main.writeFile(kPcSession, 9, kSessionFile, 0, 16 * 1024,
                       4096);
        const TimeUs last =
            main.now() > render.now() ? main.now() : render.now();
        return builder.finish(last + millisUs(500));
    }

  private:
    /** The burst every page visit starts with: history write + the
     * class-specific cache reads. */
    static void
    visitBaseBurst(Actor &main, int page_class, Fd cache_fd)
    {
        main.op(trace::EventType::Write, kPcHistWrite, 5, kHistoryDb,
                0, 4096);
        const int cache_files = 2 + page_class;
        for (int i = 0; i < cache_files; ++i) {
            main.readFile(kPcCacheRead, cache_fd,
                          kCacheBase + page_class * 16 + i, 0,
                          48 * 1024, 4096);
        }
    }

    /** The burst that completes a page load: new cache entries are
     * written back (when the page was not fully served from the
     * browser's own cache). */
    static void
    visitCompletionBurst(Actor &main, int page_class, Fd cache_fd,
                         int visit_slot)
    {
        const std::uint32_t bytes =
            main.rng().chance(0.5) ? 12 * 1024 : 4 * 1024;
        // New cache entries append at a fresh offset, so the write
        // always reaches the disk instead of being absorbed by
        // still-resident blocks of the previous visit.
        main.writeFile(kPcCacheWrite, cache_fd,
                       kCacheBase + page_class * 16 + 15,
                       static_cast<std::uint64_t>(visit_slot) * 16 *
                           4096,
                       bytes, 4096);
    }

    AppInfo info_;
};

} // namespace

std::unique_ptr<AppModel>
makeMozilla()
{
    return std::make_unique<MozillaModel>();
}

} // namespace pcap::workload
