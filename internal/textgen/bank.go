// Package textgen synthesizes Chinese-style e-commerce comment text.
//
// CATS was evaluated on proprietary Taobao comment data and on a crawl
// of a second platform; neither is available, so this package provides
// the substitute corpus: a word bank of positive, negative, neutral and
// function words (seeded from the paper's published Tables I, VIII and
// IX plus synthesized vocabulary), and generative comment models whose
// fraud/normal styles are calibrated to the separations the paper
// measures — fraud comments are long, positive-word saturated,
// punctuation heavy and duplicate rich; normal comments are short and
// sentiment mixed (Figs 1–5).
//
// Generator.AppendComment is the one comment kernel: it appends a
// comment's bytes to a caller's buffer, so a caller generating many
// comments (synth builds all of an item's into one buffer) pays for
// the text, not for a string per comment. The word list a comment
// repeats from is scratch the Generator owns and resets per comment —
// one more reason a Generator is for one goroutine. Comment is a thin
// wrapper that returns one comment as a string.
package textgen

import "sort"

// Bank holds the vocabulary of the synthetic comment universe, split by
// polarity class. All slices are deterministic (sorted construction) so
// experiments are reproducible.
type Bank struct {
	// Positive and Negative are the ground-truth sentiment lexicons.
	// The lexicon-expansion experiment (Table I) tries to recover
	// these from seed words via word2vec neighborhoods.
	Positive []string
	Negative []string
	// Neutral holds topic words (product nouns, logistics, service).
	Neutral []string
	// Function holds high-frequency connective words.
	Function []string
	// Homographs maps a word to near-duplicate misspellings used by
	// fraud campaigns to evade keyword filters, e.g. 好评 → 好坪, 好平
	// (the paper highlights that word2vec discovers these).
	Homographs map[string][]string

	positiveSet map[string]struct{}
	negativeSet map[string]struct{}
}

// Paper-sourced seed vocabulary. The real lexicons have ~200 entries
// each (Table I); the bank extends these bases with synthesized
// two-character words below.
var basePositive = []string{
	"好评", "划算", "值得", "赞", "漂亮", "很好", "合适", "精致", "不错",
	"喜欢", "满意", "舒服", "舒适", "好看", "好用", "实惠", "正品", "推荐",
	"便宜", "耐用", "挺好", "非常好", "很漂亮", "还不错", "很快", "好好",
	"精细", "性价比", "高档", "大气", "上档次", "物美价廉", "质感", "完美",
	"惊喜", "超值", "给力", "点赞", "五星", "优秀", "优质", "满分", "放心",
	"贴心", "周到", "热情", "耐心", "细心", "良心", "可靠", "结实", "牢固",
	"清晰", "灵敏", "顺滑", "柔软", "轻便", "时尚", "百搭", "显瘦", "修身",
	"保暖", "透气", "凉快", "香", "甜", "新鲜", "干净", "整齐", "快捷",
	"方便", "省心", "省事", "划得来", "真心好", "棒", "很棒", "超棒",
	"太好了", "爱了", "回购", "安利", "种草", "真香", "好吃", "好喝",
}

var baseNegative = []string{
	"差评", "恶意", "最烂", "不讲理", "太过分", "抵赖", "可恨", "退货",
	"一星", "威胁", "糟糕", "难用", "失望", "没用", "不好", "垃圾", "骗人",
	"假货", "破损", "掉色", "变形", "异味", "粗糙", "太差", "很差", "差劲",
	"坑人", "后悔", "投诉", "举报", "难看", "难闻", "难吃", "刺鼻", "褪色",
	"起球", "开线", "断裂", "裂开", "漏水", "漏气", "卡顿", "死机", "黑屏",
	"劣质", "山寨", "欺骗", "敷衍", "拖延", "拒绝", "推诿", "冷漠", "恶劣",
	"缺件", "少发", "错发", "脏", "旧", "瑕疵", "色差", "偏小", "偏大",
	"太慢", "超慢", "不值", "上当", "吃亏", "心塞", "气人", "无语", "崩溃",
}

var baseNeutral = []string{
	"质量", "物流", "包装", "宝贝", "东西", "颜色", "款式", "价格", "卖家",
	"客服", "发货", "收到", "衣服", "鞋子", "裤子", "手机", "电脑", "书",
	"扫码枪", "快递", "尺码", "面料", "材质", "味道", "大小", "速度", "服务",
	"态度", "店家", "商品", "效果", "做工", "品牌", "购物", "购买", "下单",
	"穿着", "安装", "使用", "屏幕", "电池", "声音", "图片", "描述", "实物",
	"老板", "朋友", "家人", "孩子", "妈妈", "爸爸", "老婆", "老公", "同事",
	"尺寸", "重量", "手感", "外观", "功能", "配件", "说明书", "发票", "赠品",
	"店铺", "旗舰店", "专卖店", "仓库", "地址", "电话", "短信", "链接",
	"订单", "退款", "换货", "保修", "售后", "物料", "袋子", "盒子", "箱子",
	"胶带", "泡沫", "气泡膜", "标签", "吊牌", "型号", "版本", "批次",
	"冬天", "夏天", "春天", "秋天", "上班", "上学", "出差", "旅行", "运动",
	"跑步", "健身", "做饭", "办公", "学习", "游戏", "拍照", "视频", "音乐",
}

var baseFunction = []string{
	"的", "了", "是", "我", "很", "挺", "非常", "这", "那", "也", "还",
	"就", "都", "和", "有", "没有", "一个", "这个", "那个", "在", "给",
	"买", "再", "会", "说", "看", "用", "感觉", "觉得", "比较", "但是",
	"因为", "所以", "而且", "真的", "下次", "还会", "第一次", "已经",
	"可以", "希望", "如果", "今天", "昨天", "刚刚", "马上", "终于", "果然",
	"确实", "特别", "相当", "稍微", "有点", "一点", "总体", "整体", "总之",
	"不过", "然后", "试用", "试穿", "对比", "邻居", "同学", "推荐给", "值不值",
}

// Character pools for synthesizing additional vocabulary. Combining a
// head and tail character yields plausible two-character words with a
// known polarity class; this is how the bank reaches the ~200-word
// lexicon sizes the paper reports without hand-listing every entry.
var (
	posHeads = []rune("优佳美棒良精惠妙快真爽靓值醇净潮")
	posTails = []rune("好佳优美赞棒妙爽丽选")
	negHeads = []rune("差烂劣糟坏假破次疵霉锈裂皱瘪凹")
	negTails = []rune("差烂糟劣坏损断污渍垢斑")
	neuHeads = []rune("布线扣袖领盒瓶盖带绳垫架壳膜板管轮灯键芯扇杯勺袋帽巾被枕桌椅柜床窗门")
	neuTails = []rune("件套组层面头条片块粒根支对")
)

// NewBank constructs the deterministic vocabulary bank.
func NewBank() *Bank {
	b := &Bank{
		Homographs: map[string][]string{
			"好评": {"好坪", "好平"},
			"很好": {"很恏"},
			"不错": {"不諎"},
			"满意": {"满懿"},
		},
	}
	b.Positive = synthesize(basePositive, posHeads, posTails, 210)
	b.Negative = synthesize(baseNegative, negHeads, negTails, 210)
	b.Neutral = synthesize(baseNeutral, neuHeads, neuTails, 600)
	b.Function = append([]string(nil), baseFunction...)

	b.positiveSet = toSet(b.Positive)
	b.negativeSet = toSet(b.Negative)
	return b
}

// synthesize extends base with head+tail character combinations until
// the list reaches want entries (or combinations are exhausted),
// skipping duplicates. Order is deterministic.
func synthesize(base []string, heads, tails []rune, want int) []string {
	out := append([]string(nil), base...)
	seen := toSet(out)
	for _, h := range heads {
		for _, t := range tails {
			if len(out) >= want {
				return out
			}
			w := string([]rune{h, t})
			if _, ok := seen[w]; ok {
				continue
			}
			seen[w] = struct{}{}
			out = append(out, w)
		}
	}
	return out
}

func toSet(ws []string) map[string]struct{} {
	m := make(map[string]struct{}, len(ws))
	for _, w := range ws {
		m[w] = struct{}{}
	}
	return m
}

// IsPositive reports whether w belongs to the ground-truth positive
// lexicon (homograph variants included).
func (b *Bank) IsPositive(w string) bool {
	if _, ok := b.positiveSet[w]; ok {
		return true
	}
	for base, vars := range b.Homographs {
		if _, ok := b.positiveSet[base]; !ok {
			continue
		}
		for _, v := range vars {
			if v == w {
				return true
			}
		}
	}
	return false
}

// PositiveForms lists the ground-truth positive lexicon: the positive
// words and the homograph variants of each (what IsPositive accepts).
func (b *Bank) PositiveForms() []string {
	out := append([]string(nil), b.Positive...)
	for base, vars := range b.Homographs {
		if _, ok := b.positiveSet[base]; ok {
			out = append(out, vars...)
		}
	}
	return out
}

// IsNegative reports whether w belongs to the ground-truth negative
// lexicon.
func (b *Bank) IsNegative(w string) bool {
	_, ok := b.negativeSet[w]
	return ok
}

// Vocabulary returns every word known to the bank (all classes plus
// homograph variants), sorted, for seeding the segmenter dictionary.
func (b *Bank) Vocabulary() []string {
	var out []string
	out = append(out, b.Positive...)
	out = append(out, b.Negative...)
	out = append(out, b.Neutral...)
	out = append(out, b.Function...)
	for _, vars := range b.Homographs {
		out = append(out, vars...)
	}
	sort.Strings(out)
	// Deduplicate in place.
	j := 0
	for i, w := range out {
		if i > 0 && w == out[j-1] {
			continue
		}
		out[j] = w
		j++
	}
	return out[:j]
}
